import json
import re
import shutil
import sys
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import VERILOG, read_events

from rtlflow.engine import DesignSpec, PipelineBudget, Port, run_pipeline
from rtlflow.errors import ToolchainUnavailable, build
from rtlflow.gateway import Gateway, ScriptedBackend
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
    round_trip = build(VerificationOutcome, outcome.to_dict())
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
@given(diagnostics=records, checks=st.lists(st.text(max_size=20), max_size=5))
def test_records_serialise_as_asdict(diagnostics, checks):
    """The shallow copies write the same JSON, key order included, as asdict()."""
    def dumped(obj):
        return json.dumps(obj, ensure_ascii=False, indent=2, default=str)

    outcome = VerificationOutcome("FunctionalFail", diagnostics, checks)
    assert dumped(outcome.to_dict()) == dumped(asdict(outcome))


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
    assert tc.cursor == 2
    with pytest.raises(ToolchainUnavailable):
        tc.verify(tmp_path / "c.v", tmp_path / "tb.v", tmp_path)


def test_icarus_raises_when_executable_missing(tmp_path):
    rtl = tmp_path / "m.v"
    tb = tmp_path / "tb.v"
    rtl.write_text("module m; endmodule\n")
    tb.write_text("module tb; endmodule\n")
    tc = IcarusToolchain(ToolchainConfig(compiler="definitely-not-a-compiler"))
    with pytest.raises(ToolchainUnavailable):
        tc.verify(rtl, tb, tmp_path)


# --- IcarusToolchain with Python standing in for iverilog and vvp ---
# The argv templates go through str.format, so the inline code has no braces.

COPY_RTL_TO_IMAGE = ["-c", "import shutil, sys; shutil.copy(sys.argv[1], sys.argv[2])",
                     "{rtl}", "{image}"]
PRINT_IMAGE = ["-c", "import pathlib, sys; print(pathlib.Path(sys.argv[1]).read_text())",
               "{image}"]


def stand_in(**overrides) -> IcarusToolchain:
    """A toolchain whose compiler copies the RTL to the image and whose
    simulator prints the image, so the RTL text is the simulation log."""
    return IcarusToolchain(ToolchainConfig(**{
        "compiler": sys.executable, "compile_args": COPY_RTL_TO_IMAGE,
        "simulator": sys.executable, "simulate_args": PRINT_IMAGE, **overrides,
    }))


def verify_text(tmp_path, rtl_text: str, tc: IcarusToolchain) -> VerificationOutcome:
    rtl, tb = tmp_path / "m.v", tmp_path / "tb.v"
    rtl.write_text(rtl_text)
    tb.write_text("module tb; endmodule\n")
    return tc.verify(rtl, tb, tmp_path / "verify")


def logged_tools(tmp_path) -> list[str]:
    paths = sorted((tmp_path / "verify").glob("inv_*.json"))
    assert [p.name for p in paths] == [f"inv_{i}.json" for i in range(len(paths))]
    return [json.loads(p.read_text())["tool"] for p in paths]


def test_stand_in_verify_pass(tmp_path):
    outcome = verify_text(tmp_path, "all vectors ok\nPASS\n", stand_in())
    assert outcome.kind == "Pass"
    assert logged_tools(tmp_path) == ["Compile", "Simulate"]


def test_inv_records_are_numbered_per_verify_directory(tmp_path):
    # a second verify through the same toolchain starts again at inv_0
    rtl, tb = tmp_path / "m.v", tmp_path / "tb.v"
    rtl.write_text("PASS\n")
    tb.write_text("module tb; endmodule\n")
    tc = stand_in()
    for n in range(2):
        assert tc.verify(rtl, tb, tmp_path / f"verify_{n}").kind == "Pass"
        assert sorted(p.name for p in (tmp_path / f"verify_{n}").glob("inv_*.json")) == [
            "inv_0.json", "inv_1.json"]


def test_stand_in_verify_functional_fail(tmp_path):
    outcome = verify_text(tmp_path, "ERROR: mismatch at vector 3\n", stand_in())
    assert outcome.kind == "FunctionalFail"
    assert outcome.failing_checks == ["ERROR: mismatch at vector 3"]
    assert logged_tools(tmp_path) == ["Compile", "Simulate"]


def test_stand_in_verify_syntax_fail(tmp_path):
    failing_compiler = ["-c", "import sys; print('m.v:3: syntax error', file=sys.stderr); "
                              "sys.exit(1)"]
    outcome = verify_text(tmp_path, "PASS\n", stand_in(compile_args=failing_compiler))
    assert outcome.kind == "SyntaxFail"
    assert [(d.file, d.line, d.message) for d in outcome.diagnostics] == [
        ("m.v", 3, "syntax error")
    ]
    assert logged_tools(tmp_path) == ["Compile"]  # no image, so no simulation


def test_stand_in_verify_tool_error_on_timeout(tmp_path):
    hanging = ["-c", "import time; time.sleep(60)", "{image}"]
    outcome = verify_text(tmp_path, "PASS\n", stand_in(simulate_args=hanging, sim_timeout=0.5))
    assert outcome.kind == "ToolError"
    assert "timed out" in outcome.diagnostics[0].message
    assert logged_tools(tmp_path) == ["Compile", "Simulate"]
    sim = json.loads((tmp_path / "verify" / "inv_1.json").read_text())
    assert sim["timed_out"] is True


def test_stand_in_verify_survives_non_utf8_output(tmp_path):
    # a simulator printing a latin-1 micro sign: the byte is replaced, not fatal
    latin1 = ["-c", "import sys; sys.stdout.buffer.write(b'value 19.62 \\xb5W\\nPASS\\n')",
              "{image}"]
    outcome = verify_text(tmp_path, "PASS\n", stand_in(simulate_args=latin1))
    assert outcome.kind == "Pass"
    sim = json.loads((tmp_path / "verify" / "inv_1.json").read_text())
    assert sim["stdout"] == "value 19.62 \ufffdW\nPASS\n"


def toy_reply(line: str) -> str:
    """A four-step toy module whose text holds `line`, which the stand-in
    simulator prints with the rest of the code."""
    steps = "".join(f"    // STEP {k}: step {k}\n" for k in range(1, 5))
    return (f"```verilog\nmodule toy (input clk, output q);\n{steps}    // {line}\n"
            "    assign q = clk;\nendmodule\n```")


def test_each_verify_names_the_code_it_saw(tmp_path):
    # the draft fails and is given up for a rewrite that changes the code;
    # the rewrite fails and is fixed, and the fix passes
    review = "\n".join(f"STEP {k}: IMPLEMENTED - e{k}" for k in range(1, 5))
    turns = [("Planner", "1. a\n2. b\n3. c\n4. d"),
             ("Programmer", toy_reply("ERROR: draft")),
             ("Reviewer", review.replace("4: IMPLEMENTED", "4: MISSING")),
             ("Programmer", toy_reply("ERROR: rewrite")),
             ("Evaluator", "1. for the draft"), ("Reviewer", review),
             ("Evaluator", "1. for the rewrite"), ("Programmer", toy_reply("FIX 1: PASS")),
             ("Reviewer", review)]
    (tmp_path / "tb.v").write_text("module tb; endmodule\n")
    spec = DesignSpec("toy", "toy design", "toy", [Port("clk", "in")], str(tmp_path / "tb.v"))
    ws = tmp_path / "ws"
    revisions, final = run_pipeline(spec, PipelineBudget(), Gateway(ScriptedBackend(turns)),
                                    stand_in(), ws)
    assert final == "Pass" and [r.rtl.revision for r in revisions] == [1, 2]
    outcomes = [e for e in read_events(ws) if e["event"] == "outcome"]
    assert [(e["revision"], e["kind"], e.get("superseded")) for e in outcomes] == [
        (0, "FunctionalFail", True), (1, "FunctionalFail", None), (2, "Pass", None)]
    for e in outcomes:
        verify = ws / f"verify_{e['revision']}"
        # one verify per directory: one compile and one simulation
        assert sorted(p.name for p in verify.iterdir()) == ["inv_0.json", "inv_1.json", "sim.out"]
        compile_inv, sim_inv = (json.loads((verify / f"inv_{k}.json").read_text()) for k in (0, 1))
        rtl = ws / f"rev_{e['revision']}.v"
        assert str(rtl) in compile_inv["argv"]
        assert sim_inv["stdout"] == rtl.read_text() + "\n"  # print's newline
    assert sorted(p.name for p in ws.glob("verify_*")) == ["verify_0", "verify_1", "verify_2"]


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
