import dataclasses
import json
import re
import shutil
import sys
import threading
import time

import pytest

from conftest import FIXTURES, REPORTS, SCRIPTED, read_events, read_status

from rtlflow.bench import (
    BenchCase,
    emit_tables,
    load_manifest,
    run_suite,
    success_rate,
)
from rtlflow.engine import DesignSpec, PipelineBudget
from rtlflow.errors import BadInput
from rtlflow.gateway import Gateway, ScriptedBackend
from rtlflow.toolchain import ScriptedToolchain, VerificationOutcome


# --- success rate ---

def test_success_rate_rounding():
    assert success_rate(25, 29) == 86.2
    assert success_rate(1, 3) == 33.3
    assert success_rate(2, 3) == 66.7


def test_success_rate_full_marks():
    for n in range(1, 101):
        assert success_rate(n, n) == 100.0


def test_success_rate_guards():
    with pytest.raises(ValueError, match="total must be >= 1"):
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
        baseline_report=str(REPORTS / "adder_16bit_base.rpt"),
        optimized_reports={"timing": str(REPORTS / "adder_16bit_opt_timing.rpt")},
    )
    failing = BenchCase(spec=spec_named("sig_fail"))
    erroring = BenchCase(spec=spec_named("sig_error"))
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
    case = BenchCase(spec=spec_named("sig_prose"))
    summary = run_suite(
        [case],
        lambda design: Gateway(ScriptedBackend([("Planner", "no numbered steps here")])),
        lambda design: ScriptedToolchain([]),
        PipelineBudget(),
        tmp_path,
    )
    assert summary.per_case == {"sig_prose": "Fail"}
    assert summary.failure_reasons["sig_prose"] == (
        "UnparseableReply: planner reply has no numbered steps")
    # the case's own workspace records how the run ended
    assert read_events(tmp_path / "sig_prose") == []  # but the `end` record of the status
    assert read_status(tmp_path / "sig_prose") == {
        "design": "sig_prose", "final_status": "Error", "error_type": "UnparseableReply",
        "error": "planner reply has no numbered steps"}


def test_run_suite_unparseable_diagnosis_is_fail(tmp_path):
    # the first verify fails and the Evaluator answers without a numbered list
    recorded = ScriptedBackend.from_file(SCRIPTED / "signal_generator" / "turns.json").turns
    assert [role for role, _ in recorded[:4]] == ["Planner", "Programmer", "Reviewer", "Evaluator"]
    turns = recorded[:3] + [("Evaluator", "The ramp looks wrong somewhere.")]
    case = BenchCase(spec=spec_named("sig_prose"))
    summary = run_suite(
        [case],
        lambda design: Gateway(ScriptedBackend(turns)),
        lambda design: ScriptedToolchain.from_file(SCRIPTED / "signal_generator" / "outcomes.json"),
        PipelineBudget(),
        tmp_path,
    )
    assert summary.per_case == {"sig_prose": "Fail"}
    assert summary.failure_reasons["sig_prose"] == (
        "UnparseableReply: evaluator reply has no numbered fixes")


def test_run_suite_syntax_fail_at_budget_is_syntax_fail(tmp_path):
    # both revisions fail to compile, and revision 1 reaches the budget
    compile_error = VerificationOutcome("SyntaxFail", failing_checks=["sig.v:3: syntax error"])
    summary = run_suite(
        [BenchCase(spec=spec_named("sig_syntax"))],
        lambda design: Gateway(
            ScriptedBackend.from_file(SCRIPTED / "signal_generator" / "turns.json")),
        lambda design: ScriptedToolchain([compile_error] * 2),
        PipelineBudget(max_fix_iterations=1),
        tmp_path,
    )
    assert summary.per_case == {"sig_syntax": "SyntaxFail"}
    assert summary.failure_reasons == {"sig_syntax": "compile-stage failure"}
    status = json.loads((tmp_path / "sig_syntax" / "status.json").read_text())
    assert (status["final_status"], status["revisions"]) == ("BudgetExhausted", [0, 1])


def test_run_suite_improvement_rows_only_for_passing(tmp_path):
    gw, tc = factories()
    summary = run_suite(three_cases(), gw, tc, PipelineBudget(), tmp_path)
    assert [(goal, r.design) for goal, r in summary.improvement_rows] == [("timing", "sig_pass")]
    _, row = summary.improvement_rows[0]
    assert row.per_metric["cell_area"] == pytest.approx(58.70, abs=0.05)
    assert row.per_metric["cp_slack"] is None
    assert [pair[:2] for pair in summary.tradeoff_pairs] == [("sig_pass", "timing")]


def test_run_suite_one_row_per_goal_from_its_own_report(tmp_path):
    # three goals' reports, in no particular order: power and timing each
    # give their own row, and the unreadable area report costs only its own
    power = tmp_path / "power.rpt"
    power.write_text("cell_area: 187.05 um2\ndesign_area: 202.13 um2\n"
                     "dynamic_power: 9.81 uW\nleakage_power: 0.23 uW\ncp_length: 5.77 ns\n")
    area = tmp_path / "area.rpt"
    area.write_text("no metrics here\n")
    passing, failing, _ = three_cases()
    case = dataclasses.replace(passing, optimized_reports={
        "area": str(area), "timing": passing.optimized_reports["timing"], "power": str(power)})
    gw, tc = factories()
    summary = run_suite([case, failing], gw, tc, PipelineBudget(), tmp_path / "runs")
    assert summary.per_case == {"sig_pass": "Pass", "sig_fail": "Fail"}
    assert [(goal, r.design) for goal, r in summary.improvement_rows] == [
        ("power", "sig_pass"), ("timing", "sig_pass")]
    (_, by_power), (_, by_timing) = summary.improvement_rows
    assert by_power.per_metric["dynamic_power"] == pytest.approx(50.0, abs=0.05)
    assert by_power.per_metric["cp_length"] == pytest.approx(0.0, abs=0.05)
    assert by_timing.per_metric["cp_length"] == pytest.approx(58.40, abs=0.05)
    assert summary.failure_reasons["sig_pass"].startswith(f"report: BadInput: {area}: ")

    emit_tables(summary, tmp_path / "tables")
    ppa = (tmp_path / "tables" / "ppa_table.csv").read_text().splitlines()
    assert [line.split(",")[:5] for line in ppa[1:]] == [  # to dynamic_power
        ["sig_pass", "power", "0", "0", "50"], ["sig_pass", "timing", "58.7", "59.11", "57.03"]]
    tradeoff = (tmp_path / "tables" / "tradeoff.csv").read_text().splitlines()
    assert [line.split(",")[:4] for line in tradeoff[1:]] == [
        ["sig_pass", "", "baseline", "19.62"], ["sig_pass", "power", "optimized", "9.81"],
        ["sig_pass", "timing", "optimized", "8.43"]]


def test_run_suite_parallel_matches_serial(tmp_path):
    gw1, tc1 = factories()
    serial = run_suite(three_cases(), gw1, tc1, PipelineBudget(), tmp_path / "s")
    gw2, tc2 = factories()
    parallel = run_suite(three_cases(), gw2, tc2, PipelineBudget(), tmp_path / "p", workers=3)
    assert parallel.per_case == serial.per_case
    assert parallel.passed == serial.passed


CASE_COUNTS = [(w, n) for w in range(1, 5) for n in range(1, 7)] + [(8, 64)]


@pytest.mark.parametrize("workers, n_cases", CASE_COUNTS)
def test_run_suite_runs_each_case_once_in_manifest_order(tmp_path, workers, n_cases):
    names = [f"case_{i:02d}" for i in range(n_cases)]
    calls = []

    def gateway_factory(design):
        calls.append(design)
        if design == names[0]:
            time.sleep(0.01)  # the first case finishes last when others run beside it
        raise ValueError("no backend")

    # a short switch interval makes a lost update on the shared case iterator likely
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        summary = run_suite([BenchCase(spec=spec_named(n)) for n in names], gateway_factory,
                            None, PipelineBudget(), tmp_path, workers=workers)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(calls) == names
    assert list(summary.per_case) == names
    assert set(summary.per_case.values()) == {"InfraError"}
    assert list(summary.failure_reasons) == names


def test_run_suite_one_worker_stays_on_calling_thread(tmp_path):
    gw, tc = factories()
    threads = []

    def on_thread(factory):
        def wrapped(design):
            threads.append(threading.current_thread())
            return factory(design)
        return wrapped

    summary = run_suite(three_cases(), on_thread(gw), on_thread(tc), PipelineBudget(), tmp_path)
    assert summary.per_case == {"sig_pass": "Pass", "sig_fail": "Fail", "sig_error": "InfraError"}
    assert threads == [threading.current_thread()] * 6


def test_run_suite_interrupt_on_helper_propagates(tmp_path):
    caller = threading.current_thread()
    before = set(threading.enumerate())
    caller_busy, interrupted = threading.Event(), threading.Event()
    helpers, calls = [], []

    def gateway_factory(design):
        calls.append(design)
        if threading.current_thread() is not caller:
            assert caller_busy.wait(10)
            helpers.append(threading.current_thread())
            interrupted.set()
            raise KeyboardInterrupt
        # hold the calling thread's case until the helper has raised and ended
        caller_busy.set()
        assert interrupted.wait(10)
        helpers[0].join(10)
        raise ValueError("no backend")

    cases = [BenchCase(spec=spec_named(f"case_{i}")) for i in range(4)]
    with pytest.raises(KeyboardInterrupt):
        run_suite(cases, gateway_factory, None, PipelineBudget(), tmp_path, workers=2)
    assert len(calls) == 2  # no thread takes another case once one has raised
    assert [t for t in threading.enumerate() if t not in before] == []


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
    assert summary.improvement_rows == [] and summary.tradeoff_pairs == []
    assert summary.failure_reasons["sig_pass"] == (
        f"report: BadInput: {bad}: missing key 'leakage_power'"
    )
    emit_tables(summary, tmp_path / "tables")
    assert "1/2 (50.0%)" in (tmp_path / "tables" / "success_table.md").read_text()


def test_run_suite_zero_baseline_is_one_reason(tmp_path):
    # the baseline, not a goal's report, is at fault: every row goes, and
    # the reason is given once
    zero = tmp_path / "zero.rpt"
    zero.write_text("".join(
        "cell_area: 0 um2\n" if line.startswith("cell_area") else line
        for line in (REPORTS / "adder_16bit_base.rpt").read_text().splitlines(True)
    ))
    passing, _, _ = three_cases()
    case = dataclasses.replace(passing, baseline_report=str(zero), optimized_reports={
        "power": passing.optimized_reports["timing"], "timing": passing.optimized_reports["timing"]})
    gw, tc = factories()
    summary = run_suite([case], gw, tc, PipelineBudget(), tmp_path / "runs")
    assert summary.improvement_rows == [] and summary.tradeoff_pairs == []
    assert summary.failure_reasons == {
        "sig_pass": "report: ZeroBaseline: cell_area: baseline is zero"}


def test_run_suite_workspace_write_error_is_infra(tmp_path, caplog):
    # the first case's events.jsonl cannot be opened: the workspace failed, not the design
    (tmp_path / "runs" / "sig_pass" / "events.jsonl").mkdir(parents=True)
    passing, failing, _ = three_cases()
    gw, tc = factories()
    summary = run_suite([passing, failing], gw, tc, PipelineBudget(), tmp_path / "runs")
    assert summary.per_case == {"sig_pass": "InfraError", "sig_fail": "Fail"}
    assert summary.failure_reasons["sig_pass"].startswith("IsADirectoryError:")
    assert "Traceback" not in caplog.text
    emit_tables(summary, tmp_path / "tables")
    assert "| sig_pass | infra |" in (tmp_path / "tables" / "success_table.md").read_text()


class CrashingToolchain:
    def verify(self, rtl_path, tb_path, work_dir):
        raise RuntimeError("simulator wrapper crashed")


def test_run_suite_unexpected_toolchain_error_costs_one_case(tmp_path, caplog):
    # an error rtlflow does not know is the case's Fail, named and logged with
    # its traceback; the next case still runs
    passing, failing, _ = three_cases()
    gw, tc = factories()
    summary = run_suite([failing, passing], gw,
                        lambda design: CrashingToolchain() if design == "sig_fail" else tc(design),
                        PipelineBudget(), tmp_path)
    assert summary.per_case == {"sig_fail": "Fail", "sig_pass": "Pass"}
    assert summary.failure_reasons == {"sig_fail": "RuntimeError: simulator wrapper crashed"}
    assert "case sig_fail crashed:\nTraceback" in caplog.text
    assert "RuntimeError: simulator wrapper crashed" in caplog.text


# --- tables ---

def test_emit_tables(tmp_path):
    gw, tc = factories()
    summary = run_suite(three_cases(), gw, tc, PipelineBudget(), tmp_path)
    emit_tables(summary, tmp_path / "tables")
    assert sorted(p.name for p in (tmp_path / "tables").iterdir()) == [
        "ppa_table.csv", "success_table.md", "tradeoff.csv"]

    table = (tmp_path / "tables" / "success_table.md").read_text()
    assert "| sig_pass | pass |" in table
    assert "| sig_fail | fail |" in table
    assert "| sig_error | infra |" in table
    assert "1/3 (33.3%)" in table

    csv_lines = (tmp_path / "tables" / "ppa_table.csv").read_text().splitlines()
    assert csv_lines[0].startswith("design,goal,cell_area_improvement_pct")
    cells = csv_lines[1].split(",")
    assert cells[:2] == ["sig_pass", "timing"]
    assert cells[2] == "58.7"
    assert cells[-1] == "N/A"  # slack column for a combinational baseline

    tradeoff = (tmp_path / "tables" / "tradeoff.csv").read_text().splitlines()
    assert len(tradeoff) == 3  # header + baseline + optimized
    assert [line.split(",")[:3] for line in tradeoff[1:]] == [
        ["sig_pass", "", "baseline"], ["sig_pass", "timing", "optimized"]]


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
    assert cases[0].spec.testbench_path == str(tmp_path / "tb.v")
    assert cases[0].baseline_report == str(tmp_path / "base.rpt")
    assert cases[0].optimized_reports == {}


@pytest.mark.parametrize("body, needle", [
    pytest.param(body, needle, id=body) for body, needle in [
        ("", "manifest lists no cases"),
        ("cases:\n", "manifest lists no cases"),
        ("cases: []\n", "manifest lists no cases"),
        ("suite: x\n", "unknown key 'suite'"),
    ]
])
def test_load_manifest_rejects_no_cases(tmp_path, body, needle):
    manifest = tmp_path / "suite.yaml"
    manifest.write_text(body)
    with pytest.raises(ValueError, match=needle):
        load_manifest(manifest)


def test_load_manifest_rejects_duplicate_designs(tmp_path):
    # two spec files, one design name: per_case and workspaces would collide
    for name in ("a.json", "b.json"):
        shutil.copy(FIXTURES / "signal_generator_spec.json", tmp_path / name)
    manifest = tmp_path / "suite.yaml"
    manifest.write_text("cases:\n  - spec: a.json\n  - spec: b.json\n")
    with pytest.raises(ValueError, match="duplicate design name 'signal_generator'"):
        load_manifest(manifest)


@pytest.mark.parametrize("testbench, needle", [
    pytest.param('""', "testbench_path must not be empty", id="empty"),
    pytest.param("5", "cases[0].testbench: expected str, got 5", id="not-a-string"),
    pytest.param("", "cases[0].testbench: expected str, got None", id="null"),
])
def test_load_manifest_rejects_a_bad_testbench(tmp_path, testbench, needle):
    # the override meets the spec's own checks: a bad manifest, not a failed case
    shutil.copy(FIXTURES / "signal_generator_spec.json", tmp_path / "spec.json")
    manifest = tmp_path / "suite.yaml"
    manifest.write_text(f"cases:\n  - spec: spec.json\n    testbench: {testbench}\n")
    with pytest.raises(BadInput, match=f"^{re.escape(f'{manifest}: {needle}')}$"):
        load_manifest(manifest)
