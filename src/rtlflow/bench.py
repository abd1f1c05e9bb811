"""Benchmark suite runner: pass/fail accounting, improvement tables and
trade-off point emission."""

from __future__ import annotations

import csv
import logging
import threading
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional

from .engine import DesignSpec, PipelineBudget, run_pipeline
from .errors import InfraError, RtlflowError, build, read_input, safe_load
from .metrics import (
    HEADLINE_METRICS,
    ImprovementRow,
    PpaMetrics,
    build_comparison,
    parse_report,
    render_pct,
)
from .optimizer import GOALS

log = logging.getLogger(__name__)


@dataclass
class BenchCase:
    spec: DesignSpec
    baseline_report: Optional[str] = None
    optimized_reports: dict[str, str] = field(default_factory=dict)


@dataclass
class _ManifestCase:
    """One entry of a manifest's `cases`, as written. A path left out is
    absent; a null one is rejected like any value that is not a string."""
    spec: str
    testbench: str = None
    baseline_report: str = None
    optimized_reports: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        for goal in self.optimized_reports:
            if goal not in GOALS:
                raise ValueError(f"optimized_reports key {goal!r} is not one of {GOALS}")


@dataclass
class _Manifest:
    """A manifest, as written: its cases and no other key."""
    cases: Optional[list[_ManifestCase]] = None

    def __post_init__(self):
        if not self.cases:
            raise ValueError("manifest lists no cases")


@dataclass
class BenchSummary:
    per_case: dict[str, str]  # design -> Pass | Fail | SyntaxFail | InfraError
    passed: int
    total: int
    # per design, one row and one pair per goal, in GOALS order
    improvement_rows: list[tuple[str, ImprovementRow]]  # (goal, row)
    tradeoff_pairs: list[tuple[str, str, PpaMetrics, PpaMetrics]]  # (design, goal, base, opt)
    failure_reasons: dict[str, str] = field(default_factory=dict)


def load_manifest(path: str | Path) -> list[BenchCase]:
    """Manifest is a single YAML file; relative paths resolve against it.
    A BadInput (a ValueError) names the manifest when it is not valid YAML,
    when `errors.build` rejects it as a `_Manifest` (an unknown top-level
    key, no cases, or a case it rejects as a `_ManifestCase`), or when it
    has an empty `testbench` or a design name another case has (their
    workspaces would collide); it names the spec file when that is missing
    or bad."""
    base = Path(path).parent

    def resolve(p: str | None) -> str | None:
        return None if p is None else str((base / p).resolve())

    def parse(text: str) -> list[BenchCase]:
        cases = []
        names: set[str] = set()
        for entry in build(_Manifest, safe_load(text) or {}).cases:
            spec = DesignSpec.from_json(resolve(entry.spec))
            if spec.name in names:
                raise ValueError(f"duplicate design name {spec.name!r}")
            names.add(spec.name)
            if entry.testbench is not None:  # "" is left for the spec's checks to reject
                spec = replace(spec, testbench_path=entry.testbench and resolve(entry.testbench))
            cases.append(BenchCase(spec, resolve(entry.baseline_report), {
                goal: resolve(p) for goal, p in entry.optimized_reports.items()}))
        return cases

    return read_input(path, parse)


def success_rate(passed: int, total: int) -> float:
    """Pass percentage at one-decimal rounding."""
    if total < 1:
        raise ValueError("total must be >= 1")
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
    `workers - 1` helper threads, so one worker runs every case on the
    calling thread. A case's failure, or a bad synthesis report, is
    recorded against that case; an exception `_run_case` lets through (e.g.
    KeyboardInterrupt) stops every thread from taking another case and is
    re-raised here once they end."""
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

    rows: list[tuple[str, ImprovementRow]] = []
    pairs: list[tuple[str, str, PpaMetrics, PpaMetrics]] = []
    for case in cases:
        design = case.spec.name
        if per_case[design] != "Pass" or not case.baseline_report or not case.optimized_reports:
            continue
        # one row per goal, from that goal's own report; a bad report costs
        # its own rows, not the case its other rows or the suite its tables
        try:
            base = read_input(case.baseline_report, parse_report)
        except RtlflowError as exc:
            reasons[design] = f"report: {type(exc).__name__}: {exc}"
            continue
        bad = []
        for goal in (g for g in GOALS if g in case.optimized_reports):
            try:
                opt = read_input(case.optimized_reports[goal], parse_report)
                row = build_comparison(design, base, opt)
            except RtlflowError as exc:
                bad.append(f"report: {type(exc).__name__}: {exc}")
            else:
                rows.append((goal, row))
                pairs.append((design, goal, base, opt))
        if bad:  # a zero baseline fails every goal alike: say so once
            reasons[design] = "; ".join(dict.fromkeys(bad))

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


def emit_tables(summary: BenchSummary, out_dir: str | Path) -> None:
    """Write success_table.md, ppa_table.csv and tradeoff.csv."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    success_md = out_dir / "success_table.md"
    lines = ["| Design | Result |", "|---|---|"]
    for design in sorted(summary.per_case):
        lines.append(f"| {design} | {_STATUS_MARK[summary.per_case[design]]} |")
    rate = success_rate(summary.passed, summary.total) if summary.total else 0.0
    lines.append(f"| **Success Rate** | **{summary.passed}/{summary.total} ({rate}%)** |")
    success_md.write_text("\n".join(lines) + "\n", encoding="utf-8")

    ppa_csv = out_dir / "ppa_table.csv"
    with ppa_csv.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["design", "goal"] + [f"{m}_improvement_pct" for m in HEADLINE_METRICS])
        for goal, row in summary.improvement_rows:
            writer.writerow(
                [row.design, goal] + [render_pct(row.per_metric[m]) for m in HEADLINE_METRICS]
            )

    tradeoff_csv = out_dir / "tradeoff.csv"
    with tradeoff_csv.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        # raw metrics per design: its baseline once, then each goal's
        # optimized variant; plotting is external
        writer.writerow(["design", "goal", "variant",
                         "dynamic_power_uW", "design_area_um2", "cp_length_ns"])
        baselines: set[str] = set()
        for design, goal, base, opt in summary.tradeoff_pairs:
            if design not in baselines:
                baselines.add(design)
                writer.writerow([design, "", "baseline",
                                 base.dynamic_power, base.design_area, base.cp_length])
            writer.writerow([design, goal, "optimized",
                             opt.dynamic_power, opt.design_area, opt.cp_length])
