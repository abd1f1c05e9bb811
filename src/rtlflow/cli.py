"""Command-line entry point: generate / optimize / inspect / report / bench."""

from __future__ import annotations

import json
import logging
import sys
from pathlib import Path
from typing import Optional

import click

from . import bench as bench_mod
from .config import RunConfig, load_config
from .engine import DesignSpec, RtlArtifact, run_pipeline
from .errors import ConfigParseError, InvalidBudget, RtlflowError
from .gateway import Gateway, HttpBackend, ScriptedBackend
from .inspect_rtl import fingerprint
from .metrics import build_comparison, parse_report, render_pct, HEADLINE_METRICS
from .optimizer import OptimizationGoal, load_catalog, optimize
from .toolchain import IcarusToolchain, ScriptedToolchain

log = logging.getLogger(__name__)


def _load_cfg(config_path: Optional[str], **flag_overrides) -> RunConfig:
    try:
        return load_config(config_path, flag_overrides)
    except (ConfigParseError, InvalidBudget) as exc:
        raise click.UsageError(str(exc))


def _scripted_paths(scripted: str, design: Optional[str] = None) -> tuple[Path, Path]:
    root = Path(scripted)
    if design and (root / design / "turns.json").exists():
        root = root / design
    return root / "turns.json", root / "outcomes.json"


def _make_gateway(cfg: RunConfig, scripted: Optional[str], design: Optional[str],
                  transcript_path: Optional[Path]) -> Gateway:
    if scripted:
        turns, _ = _scripted_paths(scripted, design)
        backend = ScriptedBackend.from_file(turns)
    else:
        backend = HttpBackend(cfg.backend)
    return Gateway(backend, transcript_path=transcript_path)


def _make_toolchain(cfg: RunConfig, scripted: Optional[str], design: Optional[str]):
    if scripted:
        _, outcomes = _scripted_paths(scripted, design)
        if outcomes.exists():
            return ScriptedToolchain.from_file(outcomes)
    return IcarusToolchain(cfg.toolchain)


def _write_status(workspace: Path, payload: dict) -> None:
    workspace.mkdir(parents=True, exist_ok=True)
    (workspace / "status.json").write_text(json.dumps(payload, indent=2))


@click.group()
@click.option("-v", "--verbose", is_flag=True, help="Enable debug logging.")
def main(verbose: bool):
    """Multi-role LLM Verilog generation and PPA-aware optimization."""
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )


@main.command()
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True))
@click.option("--workspace", required=True, type=click.Path())
@click.option("--budget", type=int, default=None, help="Max fix iterations.")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--scripted", type=click.Path(exists=True), default=None,
              help="Directory with turns.json/outcomes.json for offline replay.")
def generate(spec_path, workspace, budget, config_path, scripted):
    """Run the plan/program/review/verify loop for one design spec."""
    cfg = _load_cfg(config_path, max_fix_iterations=budget)
    try:
        spec = DesignSpec.from_json(spec_path)
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"bad spec file: {exc}")
    ws = Path(workspace)
    gateway = _make_gateway(cfg, scripted, spec.name, ws / "transcript.jsonl")
    toolchain = _make_toolchain(cfg, scripted, spec.name)
    try:
        transcript = run_pipeline(spec, cfg.budget, gateway, toolchain, ws)
    except RtlflowError as exc:
        _write_status(ws, {"design": spec.name, "final_status": "Error", "error": str(exc)})
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    click.echo(
        f"{spec.name}: {transcript.final_status} "
        f"after {transcript.iterations_used} iteration(s)"
    )
    sys.exit(0 if transcript.final_status == "Pass" else 1)


@main.command("optimize")
@click.option("--baseline", "baseline_dir", required=True, type=click.Path(exists=True),
              help="Workspace of a passing generate run.")
@click.option("--goal", required=True, type=click.Choice(["power", "timing", "area"]))
@click.option("--base-report", type=click.Path(exists=True), default=None,
              help="Baseline synthesis report (default: <baseline>/synth_report.txt).")
@click.option("--opt-report", type=click.Path(exists=True), default=None,
              help="Externally produced synthesis report for the variant.")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--scripted", type=click.Path(exists=True), default=None)
def optimize_cmd(baseline_dir, goal, base_report, opt_report, config_path, scripted):
    """Produce one goal-optimized, re-verified variant of a baseline."""
    cfg = _load_cfg(config_path)
    base = Path(baseline_dir)
    status_file = base / "status.json"
    if not status_file.exists():
        raise click.UsageError(f"{base} is not a generate workspace (no status.json)")
    status = json.loads(status_file.read_text())
    if status.get("final_status") != "Pass":
        raise click.UsageError("baseline run did not pass; optimize needs a passing baseline")
    last_rev = max(status["revisions"])
    baseline_rtl = RtlArtifact(
        verilog_text=(base / f"rev_{last_rev}.v").read_text(), revision=last_rev
    )
    spec = DesignSpec.from_json(status_file.parent / "spec.json") if (base / "spec.json").exists() else None
    if spec is None:
        raise click.UsageError("baseline workspace lacks spec.json")

    report_path = Path(base_report) if base_report else base / "synth_report.txt"
    if not report_path.exists():
        raise click.UsageError(
            f"awaiting baseline synthesis report: place it at {report_path} "
            "or pass --base-report"
        )
    report = parse_report(report_path.read_text())

    out = base / f"opt_{goal}"
    gateway = _make_gateway(cfg, scripted, spec.name, out / "transcript.jsonl")
    toolchain = _make_toolchain(cfg, scripted, spec.name)
    catalog = load_catalog(cfg.catalog_dir)
    try:
        variant = optimize(
            baseline_rtl, report, OptimizationGoal(goal), gateway, toolchain,
            cfg.budget, spec.testbench_path, out, catalog,
        )
    except RtlflowError as exc:
        _write_status(out, {"design": spec.name, "goal": goal,
                            "final_status": "Fail", "error": str(exc)})
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)

    payload = {
        "design": spec.name,
        "goal": goal,
        "final_status": "Pass",
        "techniques": variant.applied.techniques,
        "rationale": variant.applied.rationale,
    }
    if opt_report:
        opt_metrics = parse_report(Path(opt_report).read_text()).metrics
        row = build_comparison(spec.name, report.metrics, opt_metrics)
        payload["improvement"] = row.rendered()
    else:
        payload["awaiting_report"] = True
    _write_status(out, payload)
    click.echo(json.dumps(payload, indent=2))
    sys.exit(0)


@main.command("inspect")
@click.argument("verilog_file", type=click.Path(exists=True))
def inspect_cmd(verilog_file):
    """Emit the structural fingerprint of a Verilog file as JSON."""
    try:
        fp = fingerprint(Path(verilog_file).read_text())
    except RtlflowError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    click.echo(json.dumps(fp.to_dict(), indent=2))


@main.group()
def report():
    """Synthesis-report utilities."""


@report.command("compare")
@click.option("--base", "base_path", required=True, type=click.Path(exists=True))
@click.option("--opt", "opt_path", required=True, type=click.Path(exists=True))
@click.option("--design", default="design")
def report_compare(base_path, opt_path, design):
    """Improvement row (JSON + Markdown) between two synthesis reports."""
    try:
        base = parse_report(Path(base_path).read_text()).metrics
        opt = parse_report(Path(opt_path).read_text()).metrics
        row = build_comparison(design, base, opt)
    except RtlflowError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    click.echo(json.dumps(row.to_dict(), indent=2))
    cells = " | ".join(render_pct(row.per_metric[m]) for m in HEADLINE_METRICS)
    click.echo(f"| {design} | {cells} |")


@main.command("bench")
@click.option("--manifest", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--workers", type=click.IntRange(min=1), default=1)
@click.option("--scripted", type=click.Path(exists=True), default=None)
@click.option("--strict", is_flag=True, help="Exit nonzero if any case fails.")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
def bench_cmd(manifest, out_dir, workers, scripted, strict, config_path):
    """Run a suite of design cases and emit the evaluation tables."""
    cfg = _load_cfg(config_path)
    try:
        cases = bench_mod.load_manifest(manifest)
    except (KeyError, ValueError) as exc:
        raise click.UsageError(f"bad manifest: {exc}")
    out = Path(out_dir)

    def gateway_factory(design: str) -> Gateway:
        return _make_gateway(cfg, scripted, design, out / design / "transcript.jsonl")

    def toolchain_factory(design: str):
        return _make_toolchain(cfg, scripted, design)

    summary = bench_mod.run_suite(
        cases, gateway_factory, toolchain_factory, cfg.budget, out, workers=workers
    )
    bench_mod.emit_tables(summary, out)
    rate = bench_mod.success_rate(summary.passed, summary.total)
    _write_status(out, {
        "passed": summary.passed,
        "total": summary.total,
        "success_rate": rate,
        "per_case": summary.per_case,
        "failure_reasons": summary.failure_reasons,
    })
    click.echo(f"{summary.passed}/{summary.total} passed ({rate}%)")
    if strict and summary.passed < summary.total:
        sys.exit(1)
    sys.exit(0)


if __name__ == "__main__":
    main()
