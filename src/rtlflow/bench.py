"""Benchmark suite runner: pass/fail accounting, improvement tables and
trade-off point emission."""

from __future__ import annotations

import csv
import logging
import threading
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from .engine import DesignSpec, PipelineBudget, run_pipeline
from .errors import InfraError, RtlflowError, ZeroTotal, read_input
from .metrics import (
    HEADLINE_METRICS,
    ImprovementRow,
    PpaMetrics,
    build_comparison,
    parse_report,
    render_pct,
)
from .yamlload import safe_load

log = logging.getLogger(__name__)


@dataclass
class BenchCase:
    spec: DesignSpec
    baseline_report: Optional[str] = None
    optimized_reports: dict[str, str] = field(default_factory=dict)


@dataclass
class BenchSummary:
    per_case: dict[str, str]  # design -> Pass | Fail | SyntaxFail | InfraError
    passed: int
    total: int
    improvement_rows: list[ImprovementRow]
    tradeoff_pairs: list[tuple[str, PpaMetrics, PpaMetrics]]  # (design, baseline, optimized)
    failure_reasons: dict[str, str] = field(default_factory=dict)


def load_manifest(path: str | Path) -> list[BenchCase]:
    """Manifest is a single YAML file; relative paths resolve against it.
    A BadInput (a ValueError) names the manifest when it is not valid YAML,
    lists no cases, or has a case that is not a mapping with a `spec` entry,
    `optimized_reports` that are not a mapping, a path that is not a string
    or a design name another case has (their workspaces would collide); it
    names the spec file when that is missing or bad."""
    base = Path(path).parent

    def resolve(p: Optional[str]) -> Optional[str]:
        if p is None:
            return None
        if not isinstance(p, str):
            raise ValueError(f"a path must be a string, got {p!r}")
        q = Path(p)
        return str(q if q.is_absolute() else (base / q).resolve())

    def parse(text: str) -> list[BenchCase]:
        doc = safe_load(text)
        entries = doc.get("cases") if isinstance(doc, dict) else None
        if not entries or not isinstance(entries, list):
            raise ValueError("manifest lists no cases")
        cases = []
        names: set[str] = set()
        for entry in entries:
            if not isinstance(entry, dict) or entry.get("spec") is None:
                raise ValueError(f"each case needs a 'spec' entry, got {entry!r}")
            spec = DesignSpec.from_json(resolve(entry["spec"]))
            if spec.name in names:
                raise ValueError(f"duplicate design name {spec.name!r}")
            names.add(spec.name)
            if "testbench" in entry:
                spec.testbench_path = resolve(entry["testbench"])
            optimized = entry.get("optimized_reports") or {}
            if not isinstance(optimized, dict):
                raise ValueError(f"optimized_reports must be a mapping, got {optimized!r}")
            cases.append(
                BenchCase(
                    spec=spec,
                    baseline_report=resolve(entry.get("baseline_report")),
                    optimized_reports={goal: resolve(p) for goal, p in optimized.items()},
                )
            )
        return cases

    return read_input(path, parse)


def success_rate(passed: int, total: int) -> float:
    """Pass percentage at one-decimal rounding."""
    if total < 1:
        raise ZeroTotal("total must be >= 1")
    if passed > total:
        raise ValueError("passed cannot exceed total")
    return round(passed / total * 100.0, 1)


def _run_case(
    case: BenchCase,
    gateway_factory: Callable[[str], object],
    toolchain_factory: Callable[[str], object],
    budget: PipelineBudget,
    out_root: Path,
) -> tuple[str, str, str]:
    """Returns (design, status, reason); never raises."""
    design = case.spec.name
    workspace = out_root / design
    try:
        gateway = gateway_factory(design)
        toolchain = toolchain_factory(design)
    except Exception as exc:  # e.g. a missing script: the set-up failed, not the design
        return design, "InfraError", f"{type(exc).__name__}: {exc}"
    try:
        revisions, final = run_pipeline(case.spec, budget, gateway, toolchain, workspace)
        if final == "Pass":
            return design, "Pass", ""
        if revisions[-1].outcome.kind == "SyntaxFail":
            return design, "SyntaxFail", "compile-stage failure"
        return design, "Fail", final
    except (InfraError, OSError) as exc:  # not the design: e.g. a failed workspace write
        return design, "InfraError", f"{type(exc).__name__}: {exc}"
    except RtlflowError as exc:
        # e.g. an unparseable reply: the case fails, the suite goes on
        return design, "Fail", f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # defensive: one case must never abort the suite
        log.error("case %s crashed:\n%s", design, traceback.format_exc())
        return design, "Fail", f"{type(exc).__name__}: {exc}"


def run_suite(
    cases: list[BenchCase],
    gateway_factory: Callable[[str], object],
    toolchain_factory: Callable[[str], object],
    budget: PipelineBudget,
    out_root: str | Path,
    workers: int = 1,
) -> BenchSummary:
    """Run `workers` (>= 1) cases at a time: on the calling thread plus
    `workers - 1` helper threads, so one worker starts no thread. A case's
    failure, or a bad synthesis report, is recorded against that case; an
    exception `_run_case` lets through (e.g. KeyboardInterrupt) stops every
    thread from taking another case and is re-raised here once they end."""
    out_root = Path(out_root)
    out_root.mkdir(parents=True, exist_ok=True)

    pending = iter(cases)
    lock = threading.Lock()
    results: dict[str, tuple[str, str]] = {}  # design -> (status, reason), in finishing order
    raised: list[BaseException] = []

    def take_cases() -> None:
        try:
            while not raised:
                with lock:
                    case = next(pending, None)
                if case is None:
                    return
                design, status, reason = _run_case(
                    case, gateway_factory, toolchain_factory, budget, out_root
                )
                results[design] = (status, reason)
        except BaseException as exc:  # handed to the calling thread, which re-raises it
            raised.append(exc)

    helpers = [threading.Thread(target=take_cases) for _ in range(min(workers, len(cases)) - 1)]
    for helper in helpers:
        helper.start()
    take_cases()  # returns once no case is left or one raised; so do the helpers
    for helper in helpers:
        helper.join()
    if raised:
        raise raised[0]

    ordered = [(case.spec.name, *results[case.spec.name]) for case in cases]
    per_case = {design: status for design, status, _ in ordered}
    reasons = {design: reason for design, _, reason in ordered if reason}

    rows: list[ImprovementRow] = []
    pairs: list[tuple[str, PpaMetrics, PpaMetrics]] = []
    for case in cases:
        design = case.spec.name
        if per_case[design] != "Pass" or not case.baseline_report or not case.optimized_reports:
            continue
        # one improvement row per case against the first provided optimized report
        goal = sorted(case.optimized_reports)[0]
        try:
            base = read_input(case.baseline_report, parse_report)
            opt = read_input(case.optimized_reports[goal], parse_report)
            row = build_comparison(design, base, opt)
        except RtlflowError as exc:
            # a bad report costs this case its row, not the suite its tables
            reasons[design] = f"report: {type(exc).__name__}: {exc}"
            continue
        rows.append(row)
        pairs.append((design, base, opt))

    passed = sum(1 for s in per_case.values() if s == "Pass")
    return BenchSummary(
        per_case=per_case,
        passed=passed,
        total=len(cases),
        improvement_rows=rows,
        tradeoff_pairs=pairs,
        failure_reasons=reasons,
    )


_STATUS_MARK = {"Pass": "pass", "Fail": "fail", "SyntaxFail": "-", "InfraError": "infra"}


def emit_tables(summary: BenchSummary, out_dir: str | Path) -> list[Path]:
    """Write success_table.md, ppa_table.csv and tradeoff.csv."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    success_md = out_dir / "success_table.md"
    lines = ["| Design | Result |", "|---|---|"]
    for design in sorted(summary.per_case):
        lines.append(f"| {design} | {_STATUS_MARK[summary.per_case[design]]} |")
    rate = success_rate(summary.passed, summary.total) if summary.total else 0.0
    lines.append(f"| **Success Rate** | **{summary.passed}/{summary.total} ({rate}%)** |")
    success_md.write_text("\n".join(lines) + "\n", encoding="utf-8")
    written.append(success_md)

    ppa_csv = out_dir / "ppa_table.csv"
    with ppa_csv.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["design"] + [f"{m}_improvement_pct" for m in HEADLINE_METRICS])
        for row in summary.improvement_rows:
            writer.writerow(
                [row.design] + [render_pct(row.per_metric[m]) for m in HEADLINE_METRICS]
            )
    written.append(ppa_csv)

    tradeoff_csv = out_dir / "tradeoff.csv"
    with tradeoff_csv.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        # raw metric pairs per design and variant; plotting is external
        writer.writerow(["design", "variant", "dynamic_power_uW", "design_area_um2", "cp_length_ns"])
        for design, *variants in summary.tradeoff_pairs:
            for variant, m in zip(("baseline", "optimized"), variants):
                writer.writerow([design, variant, m.dynamic_power, m.design_area, m.cp_length])
    written.append(tradeoff_csv)
    return written
