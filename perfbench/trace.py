"""In-memory span recorder, the wrappers that place spans at rtlflow's layer
boundaries, and the per-layer metrics derived from the spans.

Spans are recorded only from the benchmark's own files: each wrapper is
installed on the module attribute the caller looks the name up in (for
example `optimizer.extract_verilog`, which optimizer imports from engine
by name). A span's self time is its duration minus the part of its
interval covered by its children.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import threading
from contextlib import contextmanager, nullcontext
from time import perf_counter


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "case", "attrs")

    def __init__(self, id_, name, start, parent, case, attrs):
        self.id = id_
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.case = case
        self.attrs = attrs


class Tracer:
    """Keeps spans in memory; parents follow a per-thread stack unless given."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, parent: Span | None = None, case: str | None = None,
             **attrs) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        if case is None and parent is not None:
            case = parent.case
        span = Span(next(self._ids), name, perf_counter(),
                    parent.id if parent else 0, case, attrs)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack().remove(span)
        self.spans.append(span)

    @contextmanager
    def _span(self, name, **kw):
        span = self.open(name, **kw)
        try:
            yield span
        finally:
            self.close(span)

    def span(self, name: str, **kw):
        return self._span(name, **kw) if self.enabled else nullcontext()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "case": s.case, "attrs": s.attrs}) + "\n")


def _wrap(tracer: Tracer, owner, attr: str, name: str, attrs_of=None, result_attrs=None) -> None:
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer._span(name, **(attrs_of(*args, **kwargs) if attrs_of else {})) as span:
            result = fn(*args, **kwargs)
            if result_attrs:
                span.attrs.update(result_attrs(result))
            return result

    setattr(owner, attr, wrapper)


ROLE_OPS = ("make_plan", "write_rtl", "review_rtl", "diagnose_failures", "apply_fixes")
PARSERS = ("extract_verilog", "extract_tags", "parse_numbered_list")


def install(tracer: Tracer, design_shape: str) -> None:
    """Wrap every rtlflow name the traced callers look up."""
    from rtlflow import bench, engine, gateway, optimizer

    for attr in ROLE_OPS + PARSERS:
        _wrap(tracer, engine, attr, f"engine.{attr}")
    for attr in ("diagnose_failures", "apply_fixes", "extract_verilog", "extract_tags"):
        _wrap(tracer, optimizer, attr, f"engine.{attr}")
    _wrap(tracer, optimizer, "fingerprint", "inspect_rtl.fingerprint",
          lambda text: {"bytes": len(text.encode()), "shape": design_shape})
    _wrap(tracer, optimizer, "select_techniques", "optimizer.select_techniques")
    _wrap(tracer, optimizer, "build_icl_prompt", "optimizer.build_icl_prompt",
          result_attrs=lambda msgs: {"chars": sum(len(m.content) for m in msgs)})
    _wrap(tracer, bench, "parse_report", "metrics.parse_report")
    _wrap(tracer, gateway.RoleSession, "send", "gateway.send")


# --- derived metrics ------------------------------------------------------------

def _union(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    return {
        s.id: (s.end - s.start) - _union([(max(c.start, s.start), min(c.end, s.end))
                                          for c in children.get(s.id, ()) if c.end > c.start])
        for s in spans
    }


_PARSE_SPANS = {f"engine.{n}" for n in ROLE_OPS + PARSERS}


def layer_metrics(spans: list[Span], roots: list[Span], workers: int,
                  pass_stats: list[dict]) -> dict[str, float]:
    """Per-layer metrics, averaged over the timed passes (one root each)."""
    selfs = self_times(spans)
    per_pass = []
    fp_points = []
    for root in roots:
        inside = [s for s in spans if root.start <= s.start <= root.end]
        by: dict[str, list[Span]] = {}
        for s in inside:
            by.setdefault(s.name, []).append(s)

        def n(name):
            return len(by.get(name, ()))

        def dur(name, pred=lambda s: True):
            return sum(s.end - s.start for s in by.get(name, ()) if pred(s))

        def own(names):
            return sum(selfs[s.id] for name in names for s in by.get(name, ()))

        def attr(name, key):
            return sum(s.attrs.get(key, 0) for s in by.get(name, ()))

        lines = attr("toolchain.classify", "lines")
        suites = by.get("bench.run_suite", [])
        suite_wall = sum(s.end - s.start for s in suites)
        cases = by.get("case", [])
        queue = [c.start - suite.start for suite in suites for c in cases
                 if c.parent == suite.id]
        fp_points += [(s.attrs["shape"], s.attrs["bytes"], s.end - s.start)
                      for s in by.get("inspect_rtl.fingerprint", ())]
        total_self = sum(selfs[s.id] for s in inside)
        per_pass.append({
            "gateway.llm_calls": n("gateway.complete"),
            "gateway.prompt_chars": attr("gateway.complete", "prompt_chars"),
            "gateway.llm_wait_s": dur("gateway.complete"),
            "gateway.send_self_s": own(["gateway.send"]),
            "engine.parse_s": own(_PARSE_SPANS),
            "engine.pipeline_self_s": own(["engine.run_pipeline"]),
            "engine.review_rounds": n("engine.review_rtl"),
            "engine.fix_iterations": n("engine.apply_fixes"),
            "toolchain.verify_calls": n("toolchain.verify"),
            "toolchain.classify_s": dur("toolchain.classify"),
            "toolchain.classify_klines": lines / 1000,
            "toolchain.classify_us_per_line": dur("toolchain.classify") / lines * 1e6 if lines else 0.0,
            "toolchain.verify_wait_s": dur("toolchain.verify_wait"),
            "inspect_rtl.fingerprint_calls": n("inspect_rtl.fingerprint"),
            "inspect_rtl.fingerprint_mb": attr("inspect_rtl.fingerprint", "bytes") / 1e6,
            "inspect_rtl.fingerprint_s.netlist":
                dur("inspect_rtl.fingerprint", lambda s: s.attrs["shape"] == "netlist"),
            "inspect_rtl.fingerprint_s.behavioural":
                dur("inspect_rtl.fingerprint", lambda s: s.attrs["shape"] == "behavioural"),
            "optimizer.load_catalog_s": dur("optimizer.load_catalog"),
            "optimizer.select_s": dur("optimizer.select_techniques"),
            "optimizer.prompt_build_s": dur("optimizer.build_icl_prompt"),
            "optimizer.prompt_chars": attr("optimizer.build_icl_prompt", "chars"),
            "optimizer.optimize_self_s": own(["optimizer.optimize"]),
            "metrics.parse_report_calls": n("metrics.parse_report"),
            "metrics.parse_report_s": dur("metrics.parse_report"),
            "bench.load_manifest_s": dur("bench.load_manifest"),
            "bench.run_suite_self_s": own(["bench.run_suite"]),
            "bench.emit_tables_s": dur("bench.emit_tables"),
            "bench.queue_wait_s": sum(queue) / len(queue) if queue else 0.0,
            "bench.worker_busy_ratio":
                sum(c.end - c.start for c in cases) / (workers * suite_wall) if suite_wall else 0.0,
            # share of traced time (wall plus thread overlap) inside a layer's
            # span rather than in the benchmark's own code around the calls
            "trace.accounted_pct":
                100.0 * own(set(by) - {"pass", "case"}) / total_self if total_self else 0.0,
        })
    out = {k: sum(p[k] for p in per_pass) / len(per_pass) for k in per_pass[0]}
    for key in ("gateway.transcript_lines", "engine.workspace_files", "engine.workspace_bytes"):
        field = key.split(".")[1]
        out[key] = sum(p[field] for p in pass_stats) / len(pass_stats)
    out["inspect_rtl.scaling_exponent"] = _slope(fp_points)
    return out


def _slope(points: list[tuple[str, float, float]]) -> float:
    """Least-squares slope of log time against log bytes, fitted within each
    design shape so that shapes with different per-byte costs do not bend
    it; 1.0 is linear scaling. 0.0 when no shape has two distinct sizes."""
    groups: dict[str, list[tuple[float, float]]] = {}
    for shape, size, secs in points:
        if size > 0 and secs > 0:
            groups.setdefault(shape, []).append((math.log(size), math.log(secs)))
    sxy = sxx = 0.0
    for pts in groups.values():
        mx = sum(x for x, _ in pts) / len(pts)
        my = sum(y for _, y in pts) / len(pts)
        sxy += sum((x - mx) * (y - my) for x, y in pts)
        sxx += sum((x - mx) ** 2 for x, _ in pts)
    return sxy / sxx if sxx > 0 else 0.0
