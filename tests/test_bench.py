import dataclasses
import json
import shutil

import pytest

from conftest import FIXTURES, REPORTS, SCRIPTED

from rtlflow.bench import (
    BenchCase,
    emit_tables,
    load_manifest,
    run_suite,
    success_rate,
)
from rtlflow.engine import DesignSpec, PipelineBudget
from rtlflow.errors import ZeroTotal
from rtlflow.gateway import Gateway, ScriptedBackend
from rtlflow.toolchain import ScriptedToolchain


# --- success rate ---

def test_success_rate_rounding():
    assert success_rate(25, 29) == 86.2
    assert success_rate(1, 3) == 33.3
    assert success_rate(2, 3) == 66.7


def test_success_rate_full_marks():
    for n in range(1, 101):
        assert success_rate(n, n) == 100.0


def test_success_rate_guards():
    with pytest.raises(ZeroTotal):
        success_rate(0, 0)
    with pytest.raises(ValueError):
        success_rate(5, 3)


# --- suite plumbing ---

def spec_named(name: str) -> DesignSpec:
    base = DesignSpec.from_json(FIXTURES / "signal_generator_spec.json")
    return dataclasses.replace(base, name=name)


def three_cases():
    passing = BenchCase(
        spec=spec_named("sig_pass"),
        golden_testbench=str(FIXTURES / "verilog" / "signal_generator_tb.v"),
        baseline_report=str(REPORTS / "adder_16bit_base.rpt"),
        optimized_reports={"timing": str(REPORTS / "adder_16bit_opt_timing.rpt")},
    )
    failing = BenchCase(
        spec=spec_named("sig_fail"),
        golden_testbench=str(FIXTURES / "verilog" / "signal_generator_tb.v"),
    )
    erroring = BenchCase(
        spec=spec_named("sig_error"),
        golden_testbench=str(FIXTURES / "verilog" / "signal_generator_tb.v"),
    )
    return [passing, failing, erroring]


def factories():
    scripts = {
        "sig_pass": SCRIPTED / "signal_generator",
        "sig_fail": SCRIPTED / "signal_generator_fail",
    }

    def gateway_factory(design):
        if design in scripts:
            return Gateway(ScriptedBackend.from_file(scripts[design] / "turns.json"))
        return Gateway(ScriptedBackend([]))  # exhausts immediately

    def toolchain_factory(design):
        if design in scripts:
            return ScriptedToolchain.from_file(scripts[design] / "outcomes.json")
        return ScriptedToolchain([])

    return gateway_factory, toolchain_factory


def test_run_suite_counts_and_isolation(tmp_path):
    gw, tc = factories()
    summary = run_suite(three_cases(), gw, tc, PipelineBudget(), tmp_path)
    assert summary.total == 3
    assert summary.passed == 1
    assert summary.per_case["sig_pass"] == "Pass"
    assert summary.per_case["sig_fail"] == "Fail"
    # one broken case must not abort the suite; an exhausted script is an
    # infrastructure failure, named in the reasons and counted in the total
    assert summary.per_case["sig_error"] == "InfraError"
    assert summary.failure_reasons["sig_error"].startswith("ScriptExhausted:")
    assert success_rate(summary.passed, summary.total) == 33.3


def test_run_suite_unparseable_reply_is_fail(tmp_path):
    case = BenchCase(
        spec=spec_named("sig_prose"),
        golden_testbench=str(FIXTURES / "verilog" / "signal_generator_tb.v"),
    )
    summary = run_suite(
        [case],
        lambda design: Gateway(ScriptedBackend([("Planner", "no numbered steps here")])),
        lambda design: ScriptedToolchain([]),
        PipelineBudget(),
        tmp_path,
    )
    assert summary.per_case == {"sig_prose": "Fail"}
    assert summary.failure_reasons["sig_prose"].startswith("UnparseablePlan:")


def test_run_suite_improvement_rows_only_for_passing(tmp_path):
    gw, tc = factories()
    summary = run_suite(three_cases(), gw, tc, PipelineBudget(), tmp_path)
    assert [r.design for r in summary.improvement_rows] == ["sig_pass"]
    row = summary.improvement_rows[0]
    assert row.per_metric["cell_area"] == pytest.approx(58.70, abs=0.05)
    assert row.per_metric["cp_slack"] is None
    variants = [(p.design, p.variant) for p in summary.tradeoff_points]
    assert variants == [("sig_pass", "baseline"), ("sig_pass", "optimized")]


def test_run_suite_parallel_matches_serial(tmp_path):
    gw1, tc1 = factories()
    serial = run_suite(three_cases(), gw1, tc1, PipelineBudget(), tmp_path / "s")
    gw2, tc2 = factories()
    parallel = run_suite(three_cases(), gw2, tc2, PipelineBudget(), tmp_path / "p", workers=3)
    assert parallel.per_case == serial.per_case
    assert parallel.passed == serial.passed


def test_run_suite_bad_report_costs_one_case(tmp_path):
    # a baseline report without leakage_power: the case keeps its Pass but
    # gets no row or points, and the suite still returns and emits tables
    bad = tmp_path / "bad.rpt"
    bad.write_text("".join(
        line for line in (REPORTS / "adder_16bit_base.rpt").read_text().splitlines(True)
        if not line.startswith("leakage_power")
    ))
    passing, failing, _ = three_cases()
    cases = [dataclasses.replace(passing, baseline_report=str(bad)), failing]
    gw, tc = factories()
    summary = run_suite(cases, gw, tc, PipelineBudget(), tmp_path / "runs")
    assert summary.per_case == {"sig_pass": "Pass", "sig_fail": "Fail"}
    assert summary.improvement_rows == [] and summary.tradeoff_points == []
    assert "MissingMetric" in summary.failure_reasons["sig_pass"]
    emit_tables(summary, tmp_path / "tables")
    assert "1/2 (50.0%)" in (tmp_path / "tables" / "success_table.md").read_text()


# --- tables ---

def test_emit_tables(tmp_path):
    gw, tc = factories()
    summary = run_suite(three_cases(), gw, tc, PipelineBudget(), tmp_path)
    written = emit_tables(summary, tmp_path / "tables")
    assert [p.name for p in written] == ["success_table.md", "ppa_table.csv", "tradeoff.csv"]

    table = (tmp_path / "tables" / "success_table.md").read_text()
    assert "| sig_pass | pass |" in table
    assert "| sig_fail | fail |" in table
    assert "| sig_error | infra |" in table
    assert "1/3 (33.3%)" in table

    csv_lines = (tmp_path / "tables" / "ppa_table.csv").read_text().splitlines()
    assert csv_lines[0].startswith("design,cell_area_improvement_pct")
    cells = csv_lines[1].split(",")
    assert cells[0] == "sig_pass"
    assert cells[1] == "58.7"
    assert cells[-1] == "N/A"  # slack column for a combinational baseline

    tradeoff = (tmp_path / "tables" / "tradeoff.csv").read_text().splitlines()
    assert len(tradeoff) == 3  # header + baseline + optimized


# --- manifest ---

def test_load_manifest_resolves_relative_paths(tmp_path):
    shutil.copy(FIXTURES / "signal_generator_spec.json", tmp_path / "spec.json")
    shutil.copy(FIXTURES / "verilog" / "signal_generator_tb.v", tmp_path / "tb.v")
    shutil.copy(REPORTS / "adder_16bit_base.rpt", tmp_path / "base.rpt")
    # testbench_path inside the copied spec points at verilog/..., override it
    spec = json.loads((tmp_path / "spec.json").read_text())
    spec["testbench_path"] = "tb.v"
    (tmp_path / "spec.json").write_text(json.dumps(spec))

    manifest = tmp_path / "suite.yaml"
    manifest.write_text(
        "cases:\n"
        "  - spec: spec.json\n"
        "    testbench: tb.v\n"
        "    baseline_report: base.rpt\n"
    )
    cases = load_manifest(manifest)
    assert len(cases) == 1
    assert cases[0].spec.name == "signal_generator"
    assert cases[0].golden_testbench == str(tmp_path / "tb.v")
    assert cases[0].baseline_report == str(tmp_path / "base.rpt")
    assert cases[0].optimized_reports == {}


@pytest.mark.parametrize("body", ["", "cases:\n", "cases: []\n", "suite: x\n"])
def test_load_manifest_rejects_no_cases(tmp_path, body):
    manifest = tmp_path / "suite.yaml"
    manifest.write_text(body)
    with pytest.raises(ValueError, match="no cases"):
        load_manifest(manifest)


def test_load_manifest_rejects_duplicate_designs(tmp_path):
    # two spec files, one design name: per_case and workspaces would collide
    for name in ("a.json", "b.json"):
        shutil.copy(FIXTURES / "signal_generator_spec.json", tmp_path / name)
    manifest = tmp_path / "suite.yaml"
    manifest.write_text("cases:\n  - spec: a.json\n  - spec: b.json\n")
    with pytest.raises(ValueError, match="duplicate design name 'signal_generator'"):
        load_manifest(manifest)
