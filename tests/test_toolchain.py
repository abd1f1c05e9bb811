import json
import re
import shutil
import sys
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import VERILOG

from rtlflow.engine import Fix, FixDiagnosis
from rtlflow.errors import ToolchainUnavailable
from rtlflow.toolchain import (
    DEFAULT_FAIL_PATTERN,
    DEFAULT_PASS_MARKER,
    DiagnosticRecord,
    IcarusToolchain,
    ScriptedToolchain,
    ToolInvocation,
    ToolchainConfig,
    VerificationOutcome,
    _run,
    classify,
    parse_diagnostics,
)

HAVE_ICARUS = shutil.which("iverilog") is not None and shutil.which("vvp") is not None
needs_icarus = pytest.mark.skipif(not HAVE_ICARUS, reason="iverilog/vvp not installed")


def inv(tool="Compile", exit_code=0, stdout="", stderr="", timed_out=False):
    return ToolInvocation(
        tool=tool, argv=[tool.lower()], cwd=".", exit_code=exit_code,
        stdout=stdout, stderr=stderr, wall_time=0.01, timed_out=timed_out,
    )


# --- diagnostics parsing ---

def test_parse_file_line_diagnostic():
    recs = parse_diagnostics("tb.v:12: syntax error\n")
    assert len(recs) == 1
    assert (recs[0].file, recs[0].line, recs[0].severity) == ("tb.v", 12, "Error")


def test_parse_severity_and_fallback():
    stderr = "design.v:7: warning: implicit wire\nsorry: Error elaborating design\nnoise line\n"
    recs = parse_diagnostics(stderr)
    assert [r.severity for r in recs] == ["Warning", "Error"]
    assert recs[0].line == 7
    assert recs[1].file == "" and recs[1].line is None


# --- classification ---

def test_classify_syntax_fail_on_compile_error():
    outcome = classify(inv(exit_code=1, stderr="tb.v:12: syntax error"), None)
    assert outcome.kind == "SyntaxFail"
    assert outcome.diagnostics[0].file == "tb.v"
    assert outcome.diagnostics[0].line == 12


def test_classify_syntax_fail_with_empty_stderr():
    outcome = classify(inv(exit_code=2), None)
    assert outcome.kind == "SyntaxFail"
    assert outcome.diagnostics  # synthesized placeholder record


def test_classify_pass_requires_marker():
    good = classify(inv(), inv("Simulate", stdout="=== TEST PASS ===\n"))
    assert good.kind == "Pass"
    silent = classify(inv(), inv("Simulate", stdout="done\n"))
    assert silent.kind == "FunctionalFail"


def test_classify_functional_fail_collects_checks():
    stdout = "ERROR: mismatch at vector 3\nok line\nERROR: mismatch at vector 9\n"
    outcome = classify(inv(), inv("Simulate", stdout=stdout))
    assert outcome.kind == "FunctionalFail"
    assert len(outcome.failing_checks) == 2
    assert "vector 3" in outcome.failing_checks[0]


def test_classify_pass_marker_line_not_a_failure():
    # "PASS" containing line matching fail words must not count against it
    stdout = "all vectors passed, 0 errors\n=== TEST PASS ===\n"
    outcome = classify(inv(), inv("Simulate", stdout=stdout),
                       pass_marker="PASS", fail_pattern=r"(?i)\berrors?\b")
    # the explicit marker line itself is excluded from failing checks
    assert all("TEST PASS" not in ln for ln in outcome.failing_checks)
    assert outcome.failing_checks == ["all vectors passed, 0 errors"]


def test_classify_tool_error_on_timeout_and_missing_sim():
    assert classify(inv(), inv("Simulate", timed_out=True, exit_code=-9)).kind == "ToolError"
    assert classify(inv(), None).kind == "ToolError"
    assert classify(inv(), inv("Simulate", exit_code=-11)).kind == "ToolError"


def test_custom_fail_pattern():
    outcome = classify(
        inv(), inv("Simulate", stdout="VIOLATION at t=40\nPASS\n"),
        fail_pattern=r"VIOLATION",
    )
    assert outcome.kind == "FunctionalFail"
    assert outcome.failing_checks == ["VIOLATION at t=40"]


@settings(max_examples=300, deadline=None)
@given(
    exit_code=st.integers(min_value=-15, max_value=3),
    stdout=st.text(max_size=300),
    stderr=st.text(max_size=300),
    sim_present=st.booleans(),
    timed_out=st.booleans(),
)
def test_classify_is_total(exit_code, stdout, stderr, sim_present, timed_out):
    """Classification never raises and always yields one of the four kinds."""
    compile_inv = inv(exit_code=0 if sim_present else exit_code, stderr=stderr)
    sim = inv("Simulate", exit_code=exit_code, stdout=stdout,
              stderr=stderr, timed_out=timed_out) if sim_present else None
    outcome = classify(compile_inv, sim)
    assert outcome.kind in ("Pass", "SyntaxFail", "FunctionalFail", "ToolError")
    round_trip = VerificationOutcome.from_dict(outcome.to_dict())
    assert round_trip.kind == outcome.kind
    assert round_trip.failing_checks == outcome.failing_checks


@settings(max_examples=200, deadline=None)
@given(
    stdout=st.text(alphabet=st.sampled_from("PASfilERORmshtc \r\n\x0b\x1c\u2028"), max_size=200),
    fail_pattern=st.sampled_from([DEFAULT_FAIL_PATTERN, r"VIOLATION", r"^E", r"(?i)fail$"]),
)
def test_classify_failing_checks_match_per_line_search(stdout, fail_pattern):
    """Failing checks are the splitlines() lines the pattern finds, minus
    lines holding the pass marker."""
    outcome = classify(inv(), inv("Simulate", stdout=stdout), fail_pattern=fail_pattern)
    want = [ln for ln in stdout.splitlines()
            if re.search(fail_pattern, ln) and DEFAULT_PASS_MARKER not in ln]
    if outcome.kind == "FunctionalFail":
        assert outcome.failing_checks == want
    else:
        assert outcome.kind == "Pass" and want == []


records = st.lists(st.builds(
    DiagnosticRecord,
    file=st.text(max_size=20),
    line=st.none() | st.integers(min_value=0, max_value=10**6),
    severity=st.sampled_from(["Error", "Warning"]),
    message=st.text(max_size=40),
    raw=st.text(max_size=40),
), max_size=20)


@settings(max_examples=200, deadline=None)
@given(diagnostics=records, checks=st.lists(st.text(max_size=20), max_size=5),
       fixes=st.lists(st.text(min_size=1, max_size=20), min_size=1, max_size=4))
def test_records_serialise_as_asdict(diagnostics, checks, fixes):
    """The shallow copies write the same JSON, key order included, as asdict()."""
    def dumped(obj):
        return json.dumps(obj, ensure_ascii=False, indent=2, default=str)

    outcome = VerificationOutcome("FunctionalFail", diagnostics, checks)
    assert dumped(outcome.to_dict()) == dumped(asdict(outcome))
    diagnosis = FixDiagnosis([Fix(f) for f in fixes], source_errors=diagnostics)
    assert dumped(diagnosis.to_dict()) == dumped(asdict(diagnosis))


# --- subprocess runner ---

def test_run_records_exit_code_and_output(tmp_path):
    argv = [sys.executable, "-c", "import sys; print('hello'); sys.exit(3)"]
    result = _run("Simulate", argv, tmp_path, timeout=60.0)
    assert (result.exit_code, result.stdout, result.timed_out) == (3, "hello\n", False)
    assert result.argv == argv and result.cwd == str(tmp_path)


def test_run_timeout_sets_timed_out(tmp_path):
    argv = [sys.executable, "-c", "import time; time.sleep(60)"]
    result = _run("Simulate", argv, tmp_path, timeout=0.5)
    assert result.timed_out and result.exit_code == -9
    assert "timeout" in result.stderr
    assert classify(inv(), result).kind == "ToolError"


# --- scripted double ---

def test_scripted_toolchain_replays_and_records(tmp_path):
    tc = ScriptedToolchain([VerificationOutcome("FunctionalFail"), VerificationOutcome("Pass")])
    first = tc.verify(tmp_path / "a.v", tmp_path / "tb.v", tmp_path)
    second = tc.verify(tmp_path / "b.v", tmp_path / "tb.v", tmp_path)
    assert (first.kind, second.kind) == ("FunctionalFail", "Pass")
    assert tc.verified_paths == [str(tmp_path / "a.v"), str(tmp_path / "b.v")]
    with pytest.raises(ToolchainUnavailable):
        tc.verify(tmp_path / "c.v", tmp_path / "tb.v", tmp_path)


def test_icarus_raises_when_executable_missing(tmp_path):
    rtl = tmp_path / "m.v"
    tb = tmp_path / "tb.v"
    rtl.write_text("module m; endmodule\n")
    tb.write_text("module tb; endmodule\n")
    tc = IcarusToolchain(ToolchainConfig(compiler="definitely-not-a-compiler"))
    with pytest.raises(ToolchainUnavailable):
        tc.compile(rtl, tb, tmp_path)


# --- real simulator (skipped where Icarus Verilog is absent) ---

@needs_icarus
def test_real_verify_good_adder(tmp_path):
    tc = IcarusToolchain()
    outcome = tc.verify(VERILOG / "adder_16bit.v", VERILOG / "adder_16bit_tb.v", tmp_path)
    assert outcome.kind == "Pass"


@needs_icarus
def test_real_verify_syntax_error(tmp_path):
    tc = IcarusToolchain()
    outcome = tc.verify(VERILOG / "broken_syntax.v", VERILOG / "adder_16bit_tb.v", tmp_path)
    assert outcome.kind == "SyntaxFail"
    assert any(d.line is not None for d in outcome.diagnostics)


@needs_icarus
def test_real_verify_functional_fail(tmp_path):
    tc = IcarusToolchain()
    outcome = tc.verify(VERILOG / "wrong_adder.v", VERILOG / "adder_16bit_tb.v", tmp_path)
    assert outcome.kind == "FunctionalFail"
    assert outcome.failing_checks
