"""Every input file a command reads, under three faults: a directory where
the file should be, one byte that is not UTF-8, and malformed content. Each
fault ends the command with its stated exit code, the file named and no
traceback; a file read before the run costs no LLM call. Last, the one exit
code rule over every command: a bad input file exits 2, a failed run 1."""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from conftest import COMMANDS, make_inputs

from rtlflow.cli import main
from rtlflow.gateway import ScriptedBackend

NO_REPLY = '[{"role": "Planner"}]'
UNKNOWN_KIND = '[{"kind": "Passed"}]'
JUNK_REPORT = "nothing here\n"

# (command, input file, exit code, read before the first LLM call, malformed
# content or None for a file rtlflow does not parse)
INPUTS = [
    ("generate", "run.yaml", 2, True, "budget: [unclosed\n"),
    ("generate", "spec.json", 2, True, '{"name": "sig"'),
    ("generate", "scripted/turns.json", 2, True, NO_REPLY),
    ("generate", "scripted/outcomes.json", 2, True, '[{"diagnostics": []}]'),
    ("generate", "tb.v", 2, True, None),
    ("optimize", "run.yaml", 2, True, "paths: 5\n"),
    ("optimize", "ws/status.json", 2, True, '{"final_status": "Pass"'),
    ("optimize", "ws/spec.json", 2, True, "[1]"),
    ("optimize", "ws/rev_1.v", 2, True, None),
    ("optimize", "ws/synth_report.txt", 2, True, JUNK_REPORT),
    ("optimize", "cards/clock_gating.md", 2, True, "a card without front-matter\n"),
    ("optimize", "opt_script/turns.json", 2, True, '[{"reply": "x"}]'),
    ("optimize", "tb.v", 2, True, None),
    ("inspect", "top.v", 2, True, "module m;\n"),
    ("report compare", "base.rpt", 2, True, JUNK_REPORT),
    ("report compare", "opt.rpt", 2, True, JUNK_REPORT),
    ("bench", "suite.yaml", 2, True, "cases: [\n"),
    ("bench", "run.yaml", 2, True, "budget: 5\n"),
    ("bench", "spec.json", 2, True, '{"ports": []}'),
    # read by run_suite: the case is charged, the suite goes on
    ("bench", "scripted/turns.json", 0, True, NO_REPLY),
    ("bench", "scripted/outcomes.json", 0, True, UNKNOWN_KIND),
    ("bench", "tb.v", 0, True, None),
    ("bench", "base.rpt", 0, False, JUNK_REPORT),
]


def _directory(path: Path, malformed) -> None:
    path.unlink()
    path.mkdir()


def _non_utf8(path: Path, malformed) -> None:
    path.write_bytes(path.read_bytes() + b"\xb5")


FAULTS = {"directory": _directory, "non-utf8": _non_utf8, "malformed": Path.write_text}

CASES = [
    pytest.param(command, rel, code, before, fault, malformed,
                 id=f"{command.replace(' ', '-')}:{rel}:{fault}")
    for command, rel, code, before, malformed in INPUTS
    for fault in FAULTS
    if fault != "malformed" or malformed is not None
]


@pytest.fixture
def inputs(tmp_path):
    """A directory where every command succeeds, as the unfaulted test checks."""
    return make_inputs(tmp_path.resolve())


@pytest.fixture
def llm_calls(monkeypatch):
    calls = []
    complete = ScriptedBackend.complete

    def counted(self, role_name, messages):
        calls.append(role_name)
        return complete(self, role_name, messages)

    monkeypatch.setattr(ScriptedBackend, "complete", counted)
    return calls


def run(command: str, root: Path):
    return CliRunner().invoke(main, [a.format(root) for a in COMMANDS[command]])


@pytest.mark.parametrize("command", COMMANDS)
def test_unfaulted_commands_succeed(inputs, command):
    result = run(command, inputs)
    assert result.exit_code == 0, result.output
    if command == "bench":
        assert json.loads((inputs / "out" / "status.json").read_text())["failure_reasons"] == {}


@pytest.mark.parametrize("command, rel, code, before_run, fault, malformed", CASES)
def test_bad_input_file_is_named_without_traceback(inputs, llm_calls, command, rel, code,
                                                   before_run, fault, malformed):
    target = inputs / rel
    FAULTS[fault](target, malformed)
    result = run(command, inputs)
    assert result.exit_code == code, result.output
    if code:
        assert isinstance(result.exception, SystemExit)
        shown = result.output
    else:  # bench charges the case and writes every table
        assert result.exception is None
        out = inputs / "out"
        for name in ("success_table.md", "ppa_table.csv", "tradeoff.csv"):
            assert (out / name).is_file()
        shown = (out / "status.json").read_text()
        # a file read before the run fails the case's set-up; a report only costs its row
        assert json.loads(shown)["per_case"] == {
            "signal_generator": "InfraError" if before_run else "Pass"}
    assert str(target) in shown
    if before_run:
        assert llm_calls == []


def test_unparseable_card_predicate_is_named_before_the_run(inputs, llm_calls):
    # a catalog fault is a usage error naming the card, not a failed optimize run
    card = inputs / "cards" / "clock_gating.md"
    card.write_text(card.read_text().replace("- register_bits > 0", "- 2 < cp_length"))
    result = run("optimize", inputs)
    assert result.exit_code == 2, result.output
    assert f"{card}: unparseable predicate: '2 < cp_length'" in result.output
    assert llm_calls == []
    assert not (inputs / "ws" / "opt_timing" / "status.json").exists()


def test_unknown_outcome_kind_is_named_before_the_run(inputs, llm_calls):
    # an outcome the loop cannot act on is a bad replay, not a failed run
    outcomes = inputs / "scripted" / "outcomes.json"
    outcomes.write_text(UNKNOWN_KIND)
    result = run("generate", inputs)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"{outcomes}: [0]: unknown outcome kind 'Passed'" in result.output
    assert llm_calls == []


def _check_bad_replay(root: Path, command: str, named: str) -> None:
    """A bad replay is a usage error in generate and costs bench the case's set-up."""
    result = run(command, root)
    if command == "generate":
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit) and named in result.output
    else:
        assert result.exit_code == 0, result.output
        status = json.loads((root / "out" / "status.json").read_text())
        assert status["per_case"] == {"signal_generator": "InfraError"}
        assert named in status["failure_reasons"]["signal_generator"]


@pytest.mark.parametrize("command", ["generate", "bench"])
def test_non_string_scripted_reply_is_named_before_the_run(inputs, llm_calls, command):
    turns = inputs / "scripted" / "turns.json"
    turns.write_text('[{"role": "Planner", "reply": 5}]')
    _check_bad_replay(inputs, command, f"{turns}: [0].reply: expected str, got 5")
    assert llm_calls == []


@pytest.mark.parametrize("command", ["generate", "bench"])
@pytest.mark.parametrize("turns, named", [
    ([{"role": "Planner", "replies": ["1. a"]}], "[0]: unknown key 'replies'"),
    ([{"role": "Planner"}], "[0]: missing key 'reply'"),
    ([{"role": ["Planner"], "reply": "1. a"}], "[0].role: expected str, got ['Planner']"),
    ({"role": "Planner", "reply": "1. a"}, "expected list, got {'role': 'Planner'"),
], ids=["unknown-key", "missing-key", "list-role", "not-a-list"])
def test_mistyped_scripted_turn_is_named_before_the_run(inputs, llm_calls, command, turns,
                                                        named):
    path = inputs / "scripted" / "turns.json"
    path.write_text(json.dumps(turns))
    _check_bad_replay(inputs, command, f"{path}: {named}")
    assert llm_calls == []


@pytest.mark.parametrize("command", ["generate", "bench"])
@pytest.mark.parametrize("outcome, named", [
    ({"kind": "FunctionalFail", "failing_checks": [5]},
     "[0].failing_checks[0]: expected str, got 5"),
    ({"kind": "FunctionalFail", "failing_checks": "mismatch"},
     "[0].failing_checks: expected list, got 'mismatch'"),
    ({"kind": "SyntaxFail", "diagnostics": [
        {"file": "d.v", "line": "7", "severity": "Error", "message": "m", "raw": "r"}]},
     "[0].diagnostics[0].line: expected int, got '7'"),
    ({"kind": "FunctionalFail", "failing_check": ["mismatch"]},
     "[0]: unknown key 'failing_check'"),
], ids=["int-check", "string-checks", "string-line", "unknown-key"])
def test_mistyped_scripted_outcome_is_named_before_the_run(inputs, llm_calls, command, outcome,
                                                           named):
    # a field the loop would only trip over after its LLM calls is a bad replay
    outcomes = inputs / "scripted" / "outcomes.json"
    outcomes.write_text(json.dumps([outcome]))
    _check_bad_replay(inputs, command, f"{outcomes}: {named}")
    assert llm_calls == []


def _planner_without_steps(root: Path, args: list[str]) -> str:
    turns = root / "scripted" / "turns.json"
    script = json.loads(turns.read_text())
    assert script[0]["role"] == "Planner"
    turns.write_text(json.dumps([dict(script[0], reply="no steps needed"), *script[1:]]))
    return "planner reply has no numbered steps"


def _variant_never_passes(root: Path, args: list[str]) -> str:
    (root / "opt_script" / "outcomes.json").write_text('[{"kind": "ToolError"}]')
    return "timing variant never passed: ToolError after 1 verification(s)"


def _zero_baseline(root: Path, args: list[str]) -> str:
    base = root / "base.rpt"
    base.write_text(base.read_text().replace("dynamic_power: 19.62", "dynamic_power: 0"))
    return "dynamic_power: baseline is zero"


def _out_under_a_file(root: Path, args: list[str]) -> str:
    (root / "file").write_text("")
    out = root / "file" / "out"
    args[args.index(f"{root}/out")] = str(out)
    return f"[Errno 20] Not a directory: '{out}'"


# how each command's run fails other than on a bad input file, and the
# message of its error; `inspect` only reads its one file
FAILED_RUNS = {
    "generate": _planner_without_steps,
    "optimize": _variant_never_passes,
    "report compare": _zero_baseline,
    "bench": _out_under_a_file,
}
# an input file of each command, faulted by a directory in its place
BAD_FILES = {"generate": "spec.json", "optimize": "ws/status.json", "inspect": "top.v",
             "report compare": "opt.rpt", "bench": "suite.yaml"}
ENDS = ([pytest.param(command, "bad-input", id=f"{command.replace(' ', '-')}:bad-input")
         for command in BAD_FILES]
        + [pytest.param(command, "failed-run", id=f"{command.replace(' ', '-')}:failed-run")
           for command in FAILED_RUNS])


@pytest.mark.parametrize("command, end", ENDS)
def test_exit_code_rule(inputs, command, end):
    args = [a.format(inputs) for a in COMMANDS[command]]
    if end == "bad-input":
        target = inputs / BAD_FILES[command]
        _directory(target, None)
        code, prefix, named = 2, "Error: ", str(target)  # click's usage error
    else:
        code, prefix, named = 1, "error: ", FAILED_RUNS[command](inputs, args)
    result = CliRunner().invoke(main, args)
    assert result.exit_code == code, result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert any(line.startswith(prefix) and named in line
               for line in result.output.splitlines()), result.output
