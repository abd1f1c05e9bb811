"""Command-line entry point: generate / optimize / inspect / report / bench."""

from __future__ import annotations

import json
import logging
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Optional

import click

from . import bench as bench_mod
from .config import RunConfig, load_config
from .engine import DesignSpec, RtlArtifact, run_pipeline, write_json
from .errors import BadInput, RtlflowError, read_input
from .gateway import Gateway, HttpBackend, ScriptedBackend
from .inspect_rtl import fingerprint
from .metrics import build_comparison, parse_report, render_pct, HEADLINE_METRICS
from .optimizer import GOALS, OptimizationGoal, load_catalog, optimize
from .toolchain import IcarusToolchain, ScriptedToolchain

log = logging.getLogger(__name__)


@contextmanager
def _usage_error(label: str = "", errors: type = BadInput):
    """`errors` raised in the block become a usage error (exit 2) led by `label`."""
    try:
        yield
    except errors as exc:
        raise click.UsageError(f"{label}{exc}") from exc


class _Group(click.Group):
    """A bad input file no command labels is a usage error naming the file."""

    def invoke(self, ctx):
        with _usage_error():
            return super().invoke(ctx)


def _read_spec(path: Path) -> DesignSpec:
    """Load a spec file; a bad one, or one naming a missing testbench, is a
    usage error."""
    with _usage_error("bad spec file "):
        spec = DesignSpec.from_json(path)
    if not Path(spec.testbench_path).is_file():
        raise click.UsageError(f"bad spec file {path}: no testbench at {spec.testbench_path}")
    return spec


def _parse_status(text: str) -> dict:
    status = json.loads(text)
    if not isinstance(status, dict):
        raise ValueError("not a JSON object")
    revisions = status.get("revisions")
    if not (isinstance(revisions, list) and revisions
            and all(isinstance(r, int) for r in revisions)):
        raise ValueError("'revisions' must be a non-empty list of integers")
    return status


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


@click.group(cls=_Group)
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
@click.option("--budget", type=click.IntRange(min=1), default=None,
              help="Max fix iterations (overrides the config file).")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--scripted", type=click.Path(exists=True), default=None,
              help="Directory with turns.json/outcomes.json for offline replay.")
def generate(spec_path, workspace, budget, config_path, scripted):
    """Run the plan/program/review/verify loop for one design spec."""
    cfg = load_config(config_path)
    if budget is not None:
        cfg.budget = replace(cfg.budget, max_fix_iterations=budget)
        log.info("--budget %d overrides budget.max_fix_iterations", budget)
    spec = _read_spec(Path(spec_path))
    ws = Path(workspace)
    gateway = _make_gateway(cfg, scripted, spec.name, ws / "transcript.jsonl")
    toolchain = _make_toolchain(cfg, scripted, spec.name)
    try:
        revisions, final = run_pipeline(spec, cfg.budget, gateway, toolchain, ws)
    except RtlflowError as exc:
        write_json(ws / "status.json",
                   {"design": spec.name, "final_status": "Error", "error": str(exc)})
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    except OSError as exc:  # e.g. a workspace path under a file
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    click.echo(f"{spec.name}: {final} after {len(revisions)} iteration(s)")
    sys.exit(0 if final == "Pass" else 1)


@main.command("optimize")
@click.option("--baseline", "baseline_dir", required=True, type=click.Path(exists=True),
              help="Workspace of a passing generate run.")
@click.option("--goal", required=True, type=click.Choice(GOALS))
@click.option("--base-report", type=click.Path(exists=True), default=None,
              help="Baseline synthesis report (default: <baseline>/synth_report.txt).")
@click.option("--opt-report", type=click.Path(exists=True), default=None,
              help="Externally produced synthesis report for the variant.")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--scripted", type=click.Path(exists=True), default=None)
def optimize_cmd(baseline_dir, goal, base_report, opt_report, config_path, scripted):
    """Produce one goal-optimized, re-verified variant of a baseline."""
    cfg = load_config(config_path)
    base = Path(baseline_dir)
    status_file = base / "status.json"
    with _usage_error("bad status file "):
        status = read_input(status_file, _parse_status)
    if status.get("final_status") != "Pass":
        raise click.UsageError("baseline run did not pass; optimize needs a passing baseline")
    last_rev = max(status["revisions"])
    rtl_file = base / f"rev_{last_rev}.v"
    if not rtl_file.is_file():
        raise click.UsageError(f"bad status file {status_file}: no revision file {rtl_file}")
    baseline_rtl = RtlArtifact(read_input(rtl_file), revision=last_rev)
    spec = _read_spec(base / "spec.json")
    with _usage_error(f"bad technique catalog {cfg.paths.catalog_dir or '(bundled)'}: ",
                      RtlflowError):
        catalog = load_catalog(cfg.paths.catalog_dir)

    report_path = Path(base_report) if base_report else base / "synth_report.txt"
    if not report_path.exists():
        raise click.UsageError(
            f"awaiting baseline synthesis report: place it at {report_path} "
            "or pass --base-report"
        )
    # both reports are checked before the first LLM call
    with _usage_error("bad synthesis report "):
        report = read_input(report_path, parse_report)
        opt = read_input(opt_report, parse_report) if opt_report else None
    row = None
    if opt is not None:
        try:
            row = build_comparison(spec.name, report, opt)
        except RtlflowError as exc:  # e.g. a zero baseline metric
            raise click.UsageError(f"cannot compare {report_path} with {opt_report}: {exc}")

    out = base / f"opt_{goal}"
    gateway = _make_gateway(cfg, scripted, spec.name, out / "transcript.jsonl")
    toolchain = _make_toolchain(cfg, scripted, spec.name)
    try:
        variant = optimize(
            baseline_rtl, report, OptimizationGoal(goal), gateway, toolchain,
            cfg.budget, spec.testbench_path, out, catalog,
        )
    except RtlflowError as exc:
        write_json(out / "status.json", {"design": spec.name, "goal": goal,
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
    if row is not None:
        payload["improvement"] = row.rendered()
    else:
        payload["awaiting_report"] = True
    write_json(out / "status.json", payload)
    click.echo(json.dumps(payload, indent=2))
    sys.exit(0)


@main.command("inspect")
@click.argument("verilog_file", type=click.Path(exists=True))
def inspect_cmd(verilog_file):
    """Emit the structural fingerprint of a Verilog file as JSON."""
    try:
        fp = read_input(verilog_file, fingerprint)
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
        base = read_input(base_path, parse_report)
        row = build_comparison(design, base, read_input(opt_path, parse_report))
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
    cfg = load_config(config_path)
    with _usage_error("bad manifest: "):
        cases = bench_mod.load_manifest(manifest)
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
    write_json(out / "status.json", {
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
