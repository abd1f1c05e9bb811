"""Timed loop of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload suite_cpu --inputs DIR \
        --seconds 30 --trace 0 --out result.json

Run from the checkout root: rtlflow is imported from ./src. One untimed
warm-up pass over a few cases comes first; then whole passes over the
generated inputs repeat, at least two, while one more pass of the mean
length still fits in --seconds. After each pass, outside the timed region,
the oracle checks every output and the pass's workspaces are counted and
removed. The result file holds pass walls, per-case walls, counts, oracle
mismatches, peak memory and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter

SRC = Path.cwd() / "src"
sys.path.insert(0, str(SRC))

import rtlflow  # noqa: E402
from rtlflow import bench, inspect_rtl, metrics, optimizer  # noqa: E402
from rtlflow.engine import PipelineBudget, RtlArtifact  # noqa: E402
from rtlflow.gateway import Gateway  # noqa: E402
from rtlflow.optimizer import OptimizationGoal  # noqa: E402

import doubles  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402
import trace  # noqa: E402

WARMUP_CASES = 4  # the untimed warm-up pass runs this many cases


def _tree_size(root: Path) -> tuple[int, int]:
    files = size = 0
    for dirpath, _, names in os.walk(root):
        for n in names:
            files += 1
            size += os.path.getsize(os.path.join(dirpath, n))
    return files, size


class SuiteRun:
    """load_manifest -> run_suite -> one optimize per passing case -> emit_tables."""

    def __init__(self, inputs: Path, latency: bool, facts: dict, tracer, workers: int):
        self.facts = facts["cases"]
        self.scripts = {n: json.loads((inputs / "scripts" / f"{n}.json").read_text())
                        for n in self.facts}
        self.records = {n: (doubles.load_records(s["logs"]), doubles.load_records(s.get("opt_logs", [])))
                        for n, s in self.scripts.items()}
        self.manifest = inputs / "suite.yaml"
        self.budget = PipelineBudget()
        self.latency = latency
        self.workers = workers
        self.tracer = tracer
        self._ends: dict[str, float] = {}
        self._case_spans: dict = {}

        real = bench.run_pipeline

        def run_pipeline(spec, *args, **kwargs):
            # installed where run_suite looks the name up; marks the case's end
            try:
                with tracer.span("engine.run_pipeline"):
                    return real(spec, *args, **kwargs)
            finally:
                self._ends[spec.name] = perf_counter()
                if tracer.enabled:
                    tracer.close(self._case_spans.pop(spec.name))

        bench.run_pipeline = run_pipeline

    def run_pass(self, out: Path, limit: int | None = None) -> dict:
        tr = self.tracer
        starts: dict[str, float] = {}
        obs: dict[str, dict] = {}
        opt_walls: dict[str, float] = {}
        suite_span = None

        def gateway_factory(design):
            starts[design] = perf_counter()
            if tr.enabled:
                self._case_spans[design] = tr.open("case", parent=suite_span, case=design)
            backend = doubles.ModelledBackend(self.scripts[design]["turns"], self.latency, tr)
            obs[design] = {"backend": backend}
            return Gateway(backend, transcript_path=out / design / "transcript.jsonl")

        def toolchain_factory(design):
            toolchain = doubles.LogToolchain(self.records[design][0], self.latency, tr)
            obs[design]["toolchain"] = toolchain
            return toolchain

        t0 = perf_counter()
        with tr.span("pass", timed=limit is None) as root:
            with tr.span("bench.load_manifest"):
                cases = bench.load_manifest(self.manifest)
            cases = cases[:limit] if limit else cases
            with tr.span("optimizer.load_catalog"):
                catalog = optimizer.load_catalog()
            with tr.span("bench.run_suite") as suite_span:
                summary = bench.run_suite(cases, gateway_factory, toolchain_factory,
                                          self.budget, out, workers=self.workers)
            passing = [c for c in cases if summary.per_case[c.spec.name] == "Pass"]
            # one design per call, as `rtlflow optimize` runs it
            for c in passing:
                self._optimize(c, out, catalog, root, obs, opt_walls)
            with tr.span("bench.emit_tables"):
                bench.emit_tables(summary, out)
        wall = perf_counter() - t0

        names = [c.spec.name for c in cases]
        errors: list[str] = []
        failed = set()
        counts = {"cases": len(names), "passing": len(passing), "llm_calls": 0,
                  "prompt_chars": 0, "verify_calls": 0}
        digest = []
        for d in names:
            o = obs.get(d, {})
            backend, toolchain = o.get("backend"), o.get("toolchain")
            seen = {
                "llm_calls": backend.calls if backend else 0,
                "script_consumed": bool(backend and backend.exhausted),
                "verify_kinds": toolchain.kinds if toolchain else [],
                "optimize": o.get("optimize"),
            }
            try:
                errs = oracle.check_suite_case(d, self.facts[d], summary.per_case.get(d), out / d, seen)
            except (OSError, KeyError, ValueError) as exc:
                errs = [f"{d}: outputs unreadable: {exc!r}"]
            if "optimize_error" in o:
                errs.append(f"{d}: optimize raised:\n{o['optimize_error']}")
            if errs and d in summary.failure_reasons:
                errs.append(f"{d}: run_suite reason: {summary.failure_reasons[d]}")
            if errs:
                failed.add(d)
                errors += errs
            opt = seen["optimize"] or {}
            counts["llm_calls"] += seen["llm_calls"] + opt.get("llm_calls", 0)
            counts["prompt_chars"] += (backend.prompt_chars if backend else 0) + opt.get("prompt_chars", 0)
            counts["verify_calls"] += len(seen["verify_kinds"]) + opt.get("verify_calls", 0)
            digest.append([d, summary.per_case.get(d), seen["llm_calls"], seen["verify_kinds"],
                           opt.get("techniques"), opt.get("prompt_chars")])
        try:
            table_errs = oracle.check_suite_tables({"cases": self.facts}, names, out)
        except (OSError, KeyError, ValueError) as exc:
            table_errs = [f"tables unreadable: {exc!r}"]
        errors += table_errs
        counts["table_errors"] = len(table_errs)
        counts["workspace_files"], counts["workspace_bytes"] = _tree_size(out)
        counts["transcript_lines"] = sum(
            sum(1 for _ in p.open()) for p in out.rglob("transcript.jsonl"))
        shutil.rmtree(out)
        return {
            "wall": wall,
            "cases": {d: self._ends[d] - starts[d] + opt_walls.get(d, 0.0)
                      for d in names if d in starts and d in self._ends},
            "failed": sorted(failed),
            "errors": errors,
            "counts": counts,
            "digest": hashlib.sha256(json.dumps(digest).encode()).hexdigest(),
        }

    def _optimize(self, case, out: Path, catalog, root, obs: dict, walls: dict) -> None:
        """The passing case's baseline goes through one optimize pass for
        the goal its manifest entry names, as `rtlflow optimize` does."""
        tr = self.tracer
        design = case.spec.name
        t0 = perf_counter()
        try:
            ws = out / design
            status = json.loads((ws / "status.json").read_text())
            last = max(status["revisions"])
            baseline = RtlArtifact(verilog_text=(ws / f"rev_{last}.v").read_text(), revision=last)
            with tr.span("metrics.parse_report", parent=root, case=design):
                report = metrics.parse_report(Path(case.baseline_report).read_text())
            goal = sorted(case.optimized_reports)[0]
            backend = doubles.ModelledBackend(self.scripts[design]["opt_turns"], self.latency, tr)
            toolchain = doubles.LogToolchain(self.records[design][1], self.latency, tr)
            gateway = Gateway(backend, transcript_path=ws / f"opt_{goal}" / "transcript.jsonl")
            with tr.span("optimizer.optimize", parent=root, case=design):
                variant = optimizer.optimize(
                    baseline, report, OptimizationGoal(goal), gateway, toolchain, self.budget,
                    case.spec.testbench_path, ws / f"opt_{goal}", catalog)
            obs[design]["optimize"] = {
                "goal": goal,
                "passed": variant.successful,
                "rtl": variant.rtl.verilog_text,
                "techniques": variant.applied.techniques,
                "llm_calls": backend.calls,
                "prompt_chars": backend.prompt_chars,
                "verify_calls": toolchain.cursor,
            }
        except Exception:  # one case's failure is reported, never fatal to the pass
            obs[design]["optimize_error"] = traceback.format_exc()
        walls[design] = perf_counter() - t0


class InspectRun:
    """Per case: parse the baseline report, fingerprint, select for all goals."""

    def __init__(self, inputs: Path, facts: dict, tracer):
        self.facts = facts["cases"]
        self.names = sorted(self.facts)
        self.texts = {n: (inputs / "src" / f"{n}.v").read_text() for n in self.names}
        self.reports = {n: (inputs / "rpt" / f"{n}.rpt").read_text() for n in self.names}
        self.tracer = tracer

    def run_pass(self, out: Path, limit: int | None = None) -> dict:
        tr = self.tracer
        names = sorted(self.names, key=lambda n: self.facts[n]["bytes"])[:limit] if limit else self.names
        walls: dict[str, float] = {}
        seen = {}
        t0 = perf_counter()
        with tr.span("pass", timed=limit is None):
            with tr.span("optimizer.load_catalog"):
                catalog = optimizer.load_catalog()
            for n in names:
                c0 = perf_counter()
                with tr.span("case", case=n):
                    with tr.span("metrics.parse_report"):
                        report = metrics.parse_report(self.reports[n])
                    with tr.span("inspect_rtl.fingerprint", bytes=self.facts[n]["bytes"],
                                 shape=self.facts[n]["shape"]):
                        fp = inspect_rtl.fingerprint(self.texts[n])
                    recs = []
                    # traced through the wrapper trace.install puts on optimizer
                    for goal in gen.GOALS:
                        recs.append(optimizer.select_techniques(
                            fp, report, OptimizationGoal(goal), catalog))
                walls[n] = perf_counter() - c0
                seen[n] = (fp.to_dict(), [(r.goal.kind, r.techniques) for r in recs])
        wall = perf_counter() - t0
        errors = []
        failed = []
        for n in names:
            errs = oracle.check_fingerprint(n, self.facts[n], *seen[n])
            if errs:
                failed.append(n)
                errors += errs
        stats = {"cases": len(names), "workspace_files": 0, "workspace_bytes": 0,
                 "transcript_lines": 0}
        return {
            "wall": wall,
            "cases": walls,
            "failed": failed,
            "errors": errors,
            "counts": stats,
            "digest": hashlib.sha256(json.dumps([[n, *seen[n]] for n in names]).encode()).hexdigest(),
        }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True, type=Path)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args()

    if Path(rtlflow.__file__).resolve().parent != (SRC / "rtlflow").resolve():
        print(f"rtlflow was imported from {rtlflow.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    # records are still created; only their terminal output is dropped
    logging.getLogger("rtlflow").addHandler(logging.NullHandler())
    facts = json.loads((args.inputs / "facts.json").read_text())
    tracer = trace.Tracer(bool(args.trace))
    if facts["kind"] == "inspect":
        workers = 1
        runner = InspectRun(args.inputs, facts, tracer)
    else:
        wcfg = gen.SUITES[args.workload]
        workers = len(os.sched_getaffinity(0)) if wcfg["workers"] == "nproc" else wcfg["workers"]
        runner = SuiteRun(args.inputs, wcfg["latency"], facts, tracer, workers)
    if args.trace:
        # suite designs are small behavioural modules
        trace.install(tracer, design_shape="behavioural")

    work = args.out.parent / f"passes-{os.getpid()}"
    warm = runner.run_pass(work / "warmup", limit=WARMUP_CASES)
    passes = []
    measured = 0.0
    # at least two passes; then stop before a further pass of the mean
    # length would overrun --seconds
    while len(passes) < 2 or measured * (len(passes) + 1) / len(passes) <= args.seconds:
        passes.append(runner.run_pass(work / f"pass{len(passes)}"))
        measured += passes[-1]["wall"]
    shutil.rmtree(work, ignore_errors=True)

    result = {
        "workers": workers,
        "passes": passes,
        "warmup_errors": warm["errors"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.trace:
        roots = [s for s in tracer.spans if s.name == "pass" and s.attrs["timed"]]
        result["layers"] = trace.layer_metrics(tracer.spans, roots, workers,
                                               [p["counts"] for p in passes])
        if args.spans:
            tracer.write(args.spans)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
