"""Benchmark suite runner: pass/fail accounting, improvement tables and
trade-off point emission."""

from __future__ import annotations

import csv
import logging
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from .engine import DesignSpec, PipelineBudget, run_pipeline
from .errors import RtlflowError, ZeroTotal
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
    golden_testbench: str
    baseline_report: Optional[str] = None
    optimized_reports: dict[str, str] = field(default_factory=dict)


@dataclass
class TradeoffPoint:
    design: str
    variant: str  # baseline | optimized
    dynamic_power: float
    design_area: float
    cp_length: float


@dataclass
class BenchSummary:
    per_case: dict[str, str]  # design -> Pass | Fail | SyntaxFail
    passed: int
    total: int
    improvement_rows: list[ImprovementRow]
    tradeoff_points: list[TradeoffPoint]
    failure_reasons: dict[str, str] = field(default_factory=dict)


def load_manifest(path: str | Path) -> list[BenchCase]:
    """Manifest is a single YAML file; relative paths resolve against it.

    Raises ValueError when the manifest lists no cases or two cases share a
    design name (their results and workspaces would collide)."""
    path = Path(path)
    base = path.parent
    doc = safe_load(path.read_text())
    entries = doc.get("cases") if isinstance(doc, dict) else None
    if not entries or not isinstance(entries, list):
        raise ValueError(f"{path}: manifest lists no cases")

    def resolve(p: Optional[str]) -> Optional[str]:
        if p is None:
            return None
        q = Path(p)
        return str(q if q.is_absolute() else (base / q).resolve())

    cases = []
    names: set[str] = set()
    for entry in entries:
        spec = DesignSpec.from_json(resolve(entry["spec"]))
        if spec.name in names:
            raise ValueError(f"{path}: duplicate design name {spec.name!r}")
        names.add(spec.name)
        if "testbench" in entry:
            spec.testbench_path = resolve(entry["testbench"])
        cases.append(
            BenchCase(
                spec=spec,
                golden_testbench=spec.testbench_path,
                baseline_report=resolve(entry.get("baseline_report")),
                optimized_reports={
                    goal: resolve(p)
                    for goal, p in (entry.get("optimized_reports") or {}).items()
                },
            )
        )
    return cases


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
        transcript = run_pipeline(case.spec, budget, gateway, toolchain, workspace)
        last = transcript.revisions[-1].outcome if transcript.revisions else None
        if transcript.final_status == "Pass":
            return design, "Pass", ""
        if last is not None and last.kind == "SyntaxFail":
            return design, "SyntaxFail", "compile-stage failure"
        return design, "Fail", transcript.final_status
    except RtlflowError as exc:
        # toolchain/gateway errors count against the case, not the suite
        return design, "SyntaxFail", f"{type(exc).__name__}: {exc}"
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
    out_root = Path(out_root)
    out_root.mkdir(parents=True, exist_ok=True)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(
                pool.map(
                    lambda c: _run_case(c, gateway_factory, toolchain_factory, budget, out_root),
                    cases,
                )
            )
    else:
        results = [
            _run_case(c, gateway_factory, toolchain_factory, budget, out_root) for c in cases
        ]

    per_case = {design: status for design, status, _ in results}
    reasons = {design: reason for design, status, reason in results if reason}

    rows: list[ImprovementRow] = []
    points: list[TradeoffPoint] = []
    for case in cases:
        design = case.spec.name
        if per_case.get(design) != "Pass":
            continue
        if not case.baseline_report or not case.optimized_reports:
            continue
        base = parse_report(Path(case.baseline_report).read_text()).metrics
        # one improvement row per case against the first provided optimized report
        goal = sorted(case.optimized_reports)[0]
        opt = parse_report(Path(case.optimized_reports[goal]).read_text()).metrics
        rows.append(build_comparison(design, base, opt))
        points.append(_point(design, "baseline", base))
        points.append(_point(design, "optimized", opt))

    passed = sum(1 for s in per_case.values() if s == "Pass")
    return BenchSummary(
        per_case=per_case,
        passed=passed,
        total=len(cases),
        improvement_rows=rows,
        tradeoff_points=points,
        failure_reasons=reasons,
    )


def _point(design: str, variant: str, m: PpaMetrics) -> TradeoffPoint:
    return TradeoffPoint(
        design=design,
        variant=variant,
        dynamic_power=m.dynamic_power,
        design_area=m.design_area,
        cp_length=m.cp_length,
    )


_STATUS_MARK = {"Pass": "pass", "Fail": "fail", "SyntaxFail": "-"}


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
    success_md.write_text("\n".join(lines) + "\n")
    written.append(success_md)

    ppa_csv = out_dir / "ppa_table.csv"
    with ppa_csv.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["design"] + [f"{m}_improvement_pct" for m in HEADLINE_METRICS])
        for row in summary.improvement_rows:
            writer.writerow(
                [row.design] + [render_pct(row.per_metric[m]) for m in HEADLINE_METRICS]
            )
    written.append(ppa_csv)

    tradeoff_csv = out_dir / "tradeoff.csv"
    with tradeoff_csv.open("w", newline="") as fh:
        writer = csv.writer(fh)
        # raw metric pairs per design and variant; plotting is external
        writer.writerow(["design", "variant", "dynamic_power_uW", "design_area_um2", "cp_length_ns"])
        for p in summary.tradeoff_points:
            writer.writerow([p.design, p.variant, p.dynamic_power, p.design_area, p.cp_length])
    written.append(tradeoff_csv)
    return written
