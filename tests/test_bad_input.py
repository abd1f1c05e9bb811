"""Every input file a command reads, under three faults: a directory where
the file should be, one byte that is not UTF-8, and malformed content. Each
fault ends the command with its stated exit code, the file named and no
traceback; a file read before the run costs no LLM call."""

import json
import shutil
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

from conftest import FIXTURES, REPORTS, SCRIPTED, VERILOG

import rtlflow
from rtlflow.cli import main
from rtlflow.gateway import ScriptedBackend

CARDS = Path(rtlflow.__file__).resolve().parent / "cards"

COMMANDS = {  # "{}" is the directory the inputs fixture fills
    "generate": ["generate", "--spec", "{}/spec.json", "--workspace", "{}/gen",
                 "--config", "{}/run.yaml", "--scripted", "{}/scripted"],
    # the baseline report is ws/synth_report.txt, the default
    "optimize": ["optimize", "--baseline", "{}/ws", "--goal", "timing",
                 "--opt-report", "{}/opt.rpt", "--config", "{}/run.yaml",
                 "--scripted", "{}/opt_script"],
    "inspect": ["inspect", "{}/top.v"],
    "report compare": ["report", "compare", "--base", "{}/base.rpt", "--opt", "{}/opt.rpt"],
    "bench": ["bench", "--manifest", "{}/suite.yaml", "--out", "{}/out",
              "--config", "{}/run.yaml", "--scripted", "{}/scripted"],
}

NO_REPLY = '[{"role": "Planner"}]'
JUNK_REPORT = "nothing here\n"

# (command, input file, exit code, read before the first LLM call, malformed
# content or None for a file rtlflow does not parse)
INPUTS = [
    ("generate", "run.yaml", 2, True, "budget: [unclosed\n"),
    ("generate", "spec.json", 2, True, '{"name": "sig"'),
    ("generate", "scripted/turns.json", 2, True, NO_REPLY),
    ("generate", "scripted/outcomes.json", 2, True, '[{"diagnostics": []}]'),
    ("optimize", "run.yaml", 2, True, "paths: 5\n"),
    ("optimize", "ws/status.json", 2, True, '{"final_status": "Pass"'),
    ("optimize", "ws/spec.json", 2, True, "[1]"),
    ("optimize", "ws/rev_1.v", 2, True, None),
    ("optimize", "ws/synth_report.txt", 2, True, JUNK_REPORT),
    ("optimize", "opt.rpt", 2, True, JUNK_REPORT),
    ("optimize", "cards/clock_gating.md", 2, True, "a card without front-matter\n"),
    ("optimize", "opt_script/turns.json", 2, True, '[{"reply": "x"}]'),
    ("inspect", "top.v", 1, True, "module m;\n"),
    ("report compare", "base.rpt", 1, True, JUNK_REPORT),
    ("report compare", "opt.rpt", 1, True, JUNK_REPORT),
    ("bench", "suite.yaml", 2, True, "cases: [\n"),
    ("bench", "run.yaml", 2, True, "budget: 5\n"),
    ("bench", "spec.json", 2, True, '{"ports": []}'),
    # read by run_suite: the case is charged, the suite goes on
    ("bench", "scripted/turns.json", 0, True, NO_REPLY),
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
    root = tmp_path.resolve()
    shutil.copy(VERILOG / "signal_generator_tb.v", root / "tb.v")
    spec = json.loads((FIXTURES / "signal_generator_spec.json").read_text())
    (root / "spec.json").write_text(json.dumps(dict(spec, testbench_path=str(root / "tb.v"))))
    shutil.copytree(SCRIPTED / "signal_generator", root / "scripted")
    shutil.copytree(CARDS, root / "cards")
    (root / "run.yaml").write_text(yaml.safe_dump({"paths": {"catalog_dir": str(root / "cards")}}))
    shutil.copy(REPORTS / "adder_16bit_base.rpt", root / "base.rpt")
    shutil.copy(REPORTS / "adder_16bit_opt_timing.rpt", root / "opt.rpt")
    shutil.copy(VERILOG / "adder_16bit.v", root / "top.v")
    (root / "suite.yaml").write_text(
        "cases:\n  - spec: spec.json\n    baseline_report: base.rpt\n"
        "    optimized_reports: {timing: opt.rpt}\n"
    )
    result = CliRunner().invoke(main, ["generate", "--spec", str(root / "spec.json"),
                                       "--workspace", str(root / "ws"),
                                       "--scripted", str(root / "scripted")])
    assert result.exit_code == 0, result.output
    shutil.copy(root / "base.rpt", root / "ws" / "synth_report.txt")
    rtl = (root / "ws" / "rev_1.v").read_text()
    (root / "opt_script").mkdir()
    (root / "opt_script" / "turns.json").write_text(
        json.dumps([{"role": "Optimizer", "reply": f"```verilog\n{rtl}```"}]))
    (root / "opt_script" / "outcomes.json").write_text(
        json.dumps([{"kind": "Pass", "diagnostics": [], "failing_checks": []}]))
    return root


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
