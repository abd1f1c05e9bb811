import dataclasses
import json
import logging
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

from conftest import FIXTURES, REPORTS, SCRIPTED, VERILOG, read_events, read_status

import rtlflow
from rtlflow.cli import main
from rtlflow.config import RunConfig, load_config
from rtlflow.errors import BadInput
from rtlflow.gateway import ScriptedBackend


SRC = Path(rtlflow.__file__).resolve().parent.parent


@pytest.fixture
def runner():
    return CliRunner()


def test_unknown_subcommand(runner):
    result = runner.invoke(main, ["frobnicate"])
    assert result.exit_code == 2


def test_generate_scripted_pass(tmp_path, runner):
    ws = tmp_path / "ws"
    result = runner.invoke(main, [
        "generate",
        "--spec", str(FIXTURES / "signal_generator_spec.json"),
        "--workspace", str(ws),
        "--scripted", str(SCRIPTED / "signal_generator"),
    ])
    assert result.exit_code == 0, result.output
    assert "Pass" in result.output
    status = json.loads((ws / "status.json").read_text())
    assert status["final_status"] == "Pass"
    assert (ws / "rev_1.v").exists()


def test_generate_rerun_starts_both_logs_afresh(tmp_path, runner):
    # a workspace explains its last run only
    ws = tmp_path / "ws"
    args = ["generate", "--spec", str(FIXTURES / "signal_generator_spec.json"),
            "--workspace", str(ws), "--scripted", str(SCRIPTED / "signal_generator")]
    for _ in range(2):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
    events = [json.loads(line) for line in (ws / "events.jsonl").read_text().splitlines()]
    assert [e["event"] for e in events].count("plan") == 1
    status = json.loads((ws / "status.json").read_text())
    assert [e["revision"] for e in events if e["event"] == "outcome"] == status["revisions"]
    lines = [json.loads(line) for line in (ws / "transcript.jsonl").read_text().splitlines()]
    assert len({line["run_id"] for line in lines}) == 1
    assert [line["seq"] for line in lines] == list(range(len(lines)))


def test_rerun_failing_at_its_first_call_leaves_no_old_exchange(tmp_path, runner):
    # the rerun's Planner call raises, so the rerun writes no exchange
    ws = tmp_path / "ws"
    spec = str(FIXTURES / "signal_generator_spec.json")
    result = runner.invoke(main, ["generate", "--spec", spec, "--workspace", str(ws),
                                  "--scripted", str(SCRIPTED / "signal_generator")])
    assert result.exit_code == 0, result.output
    assert len((ws / "transcript.jsonl").read_text().splitlines()) == 12
    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "turns.json").write_text("[]")
    result = runner.invoke(main, ["generate", "--spec", spec, "--workspace", str(ws),
                                  "--scripted", str(empty)])
    assert result.exit_code == 1
    assert "error: no scripted turns left (role Planner)" in result.output
    assert read_events(ws) == []  # but the one `end` record
    assert (ws / "transcript.jsonl").read_text() == ""
    assert read_status(ws)["final_status"] == "Error"


def test_generate_scripted_budget_exhausted(tmp_path, runner):
    result = runner.invoke(main, [
        "generate",
        "--spec", str(FIXTURES / "signal_generator_spec.json"),
        "--workspace", str(tmp_path / "ws"),
        "--budget", "3",
        "--scripted", str(SCRIPTED / "signal_generator_fail"),
    ])
    assert result.exit_code == 1
    assert "BudgetExhausted" in result.output


def test_generate_writes_utf8_under_ascii_locale(tmp_path):
    """Workspace files are UTF-8 whatever the locale: a reply with a
    non-ASCII comment is written as is under the C locale."""
    scripted = tmp_path / "scripted"
    shutil.copytree(SCRIPTED / "signal_generator", scripted)
    turns = json.loads((scripted / "turns.json").read_text())
    assert turns[1]["role"] == "Programmer"
    turns[1]["reply"] = turns[1]["reply"].replace(
        "    reg going_up;", "    // ramp 0 → 31 → 0\n    reg going_up;")
    (scripted / "turns.json").write_text(json.dumps(turns))
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    ws = tmp_path / "ws"
    proc = subprocess.run(
        [sys.executable, "-m", "rtlflow.cli", "generate",
         "--spec", str(FIXTURES / "signal_generator_spec.json"),
         "--workspace", str(ws), "--scripted", str(scripted)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "// ramp 0 → 31 → 0" in (ws / "rev_0.v").read_text(encoding="utf-8")


def test_generate_bad_spec(tmp_path, runner):
    bad = tmp_path / "spec.json"
    spec = json.loads((FIXTURES / "signal_generator_spec.json").read_text())
    tb = VERILOG / "signal_generator_tb.v"
    for body in ("{not json", "[1]", json.dumps(dict(spec, testbench_path=5)),
                 json.dumps(dict(spec, name=5)), json.dumps(dict(spec, testbench_path="")),
                 # with a testbench that exists, so only the module name is bad
                 *(json.dumps(dict(spec, module_name=name, testbench_path=str(tb)))
                   for name in ("", "2x", "m-1", 5)),
                 *(json.dumps(dict(spec, name=name))
                   for name in ("", ".", "..", "../escape", "a/b", "/abs"))):
        bad.write_text(body)
        result = runner.invoke(main, [
            "generate", "--spec", str(bad), "--workspace", str(tmp_path / "ws"),
            "--scripted", str(SCRIPTED / "signal_generator"),
        ])
        assert result.exit_code == 2, (body, result.output)
        assert "bad spec" in result.output


CLK = {"name": "clk", "direction": "in", "width": 1}

BAD_PORTS = [
    pytest.param([dict(CLK, bits=1)], "ports[0]: unknown key 'bits'", id="unknown-key"),
    pytest.param([{"name": "clk", "width": 1}], "ports[0]: missing key 'direction'",
                 id="missing-key"),
    pytest.param(["clk"], "ports[0]: expected a mapping, got 'clk'", id="not-a-mapping"),
    pytest.param({"clk": CLK}, "ports: expected list, got {'clk': {", id="ports-not-a-list"),
    pytest.param([CLK, dict(CLK, name="d", width="8")], "ports[1].width: expected int, got '8'",
                 id="string-width"),
    pytest.param([dict(CLK, name="")], "port name '' is not a Verilog identifier",
                 id="empty-name"),
    pytest.param([dict(CLK, name=["a"])], "ports[0].name: expected str, got ['a']",
                 id="list-name"),
    pytest.param([dict(CLK, name="data out")], "port name 'data out' is not a Verilog identifier",
                 id="name-with-space"),
    pytest.param([], "spec needs at least one port", id="no-ports"),
]


def write_spec(path, ports):
    """The signal_generator fixture spec with `ports` in place of its own."""
    spec = json.loads((FIXTURES / "signal_generator_spec.json").read_text())
    spec.update(ports=ports, testbench_path=str(VERILOG / "signal_generator_tb.v"))
    path.write_text(json.dumps(spec))
    return path


@pytest.mark.parametrize("ports, needle", BAD_PORTS)
def test_generate_bad_ports_is_usage_error(tmp_path, runner, ports, needle):
    spec = write_spec(tmp_path / "spec.json", ports)
    result = runner.invoke(main, [
        "generate", "--spec", str(spec), "--workspace", str(tmp_path / "ws"),
        "--scripted", str(SCRIPTED / "signal_generator"),
    ])
    assert result.exit_code == 2, result.output
    assert "bad spec file" in result.output and needle in result.output
    assert not (tmp_path / "ws").exists()


def test_generate_invalid_budget_flag(tmp_path, runner):
    result = runner.invoke(main, [
        "generate",
        "--spec", str(FIXTURES / "signal_generator_spec.json"),
        "--workspace", str(tmp_path / "ws"),
        "--budget", "0",
        "--scripted", str(SCRIPTED / "signal_generator"),
    ])
    assert result.exit_code == 2


def test_inspect_outputs_fingerprint(runner):
    result = runner.invoke(main, ["inspect", str(VERILOG / "adder_16bit.v")])
    assert result.exit_code == 0
    fp = json.loads(result.output)
    assert fp["instance_groups"] == {"full_adder": 16}
    assert fp["carry_chain_detected"] is True


def test_report_compare(runner):
    result = runner.invoke(main, [
        "report", "compare",
        "--base", str(REPORTS / "adder_16bit_base.rpt"),
        "--opt", str(REPORTS / "adder_16bit_opt_timing.rpt"),
        "--design", "adder_16bit",
    ])
    assert result.exit_code == 0
    assert "| adder_16bit | 58.7 |" in result.output
    assert "N/A" in result.output


def test_report_compare_unparseable(tmp_path, runner):
    junk = tmp_path / "junk.rpt"
    junk.write_text("nothing here\n")
    result = runner.invoke(main, [
        "report", "compare", "--base", str(junk), "--opt", str(junk),
    ])
    assert result.exit_code == 2  # a bad input file is a usage error
    assert f"{junk}: " in result.output


def test_report_compare_unreadable_path(runner):
    result = runner.invoke(main, [
        "report", "compare", "--base", str(FIXTURES), "--opt", str(REPORTS / "adder_16bit_base.rpt"),
    ])
    assert result.exit_code == 2  # a bad input file is a usage error
    assert f"{FIXTURES}: " in result.output
    assert isinstance(result.exception, SystemExit)  # no traceback


# --- optimize input checks ---

@pytest.fixture
def passing_workspace(tmp_path, runner):
    ws = tmp_path / "ws"
    result = runner.invoke(main, [
        "generate",
        "--spec", str(FIXTURES / "signal_generator_spec.json"),
        "--workspace", str(ws),
        "--scripted", str(SCRIPTED / "signal_generator"),
    ])
    assert result.exit_code == 0, result.output
    return ws


JUNK_REPORT = "nothing here\n"


@pytest.mark.parametrize("base_text, needle", [
    pytest.param(JUNK_REPORT, "bad synthesis report {base}", id="junk-base"),
])
def test_optimize_bad_report_is_usage_error(tmp_path, runner, passing_workspace, monkeypatch,
                                            base_text, needle):
    calls = []
    monkeypatch.setattr(ScriptedBackend, "complete", lambda self, *a: calls.append(a))
    base = tmp_path / "base.rpt"
    base.write_text(base_text)
    result = runner.invoke(main, [
        "optimize", "--baseline", str(passing_workspace), "--goal", "timing",
        "--base-report", str(base), "--scripted", str(SCRIPTED / "signal_generator"),
    ])
    assert result.exit_code == 2, result.output
    assert needle.format(base=base) in result.output
    assert calls == []  # rejected before the first LLM call
    assert not (passing_workspace / "opt_timing").exists()


@pytest.mark.parametrize("body, needle", [
    pytest.param('{"final_status": "Pass"', "Expecting ',' delimiter", id="truncated"),
    pytest.param("[1]", "not a JSON object", id="not-an-object"),
    pytest.param('{"final_status": "Pass"}', "'revisions' must be", id="no-revisions"),
    pytest.param('{"final_status": "Pass", "revisions": 1}', "'revisions' must be",
                 id="revisions-not-a-list"),
    pytest.param('{"final_status": "Pass", "revisions": [7]}', "no revision file",
                 id="revision-file-missing"),
])
def test_optimize_bad_status_file_is_usage_error(runner, passing_workspace, body, needle):
    status_file = passing_workspace / "status.json"
    status_file.write_text(body)
    result = runner.invoke(main, [
        "optimize", "--baseline", str(passing_workspace), "--goal", "timing",
        "--base-report", str(REPORTS / "adder_16bit_base.rpt"),
        "--scripted", str(SCRIPTED / "signal_generator"),
    ])
    assert result.exit_code == 2, result.output
    assert f"bad status file {status_file}: " in result.output and needle in result.output
    assert not (passing_workspace / "opt_timing").exists()


def _failed_baseline(ws):
    """The baseline run did not pass; returns optimize's extra args and its error."""
    status_file = ws / "status.json"
    status_file.write_text(json.dumps(dict(json.loads(status_file.read_text()),
                                           final_status="BudgetExhausted")))
    return (["--base-report", str(REPORTS / "adder_16bit_base.rpt")],
            "baseline run did not pass; optimize needs a passing baseline")


def _no_report(ws):
    """No `synth_report.txt` in the baseline and no --base-report."""
    assert not (ws / "synth_report.txt").exists()
    return [], (f"awaiting baseline synthesis report: place it at {ws / 'synth_report.txt'} "
                "or pass --base-report")


@pytest.mark.parametrize("fault", [_failed_baseline, _no_report], ids=["not-pass", "no-report"])
def test_optimize_needs_a_passing_baseline_and_its_report(runner, passing_workspace, monkeypatch,
                                                          fault):
    calls = []
    monkeypatch.setattr(ScriptedBackend, "complete", lambda self, *a: calls.append(a))
    extra, needle = fault(passing_workspace)
    result = runner.invoke(main, [
        "optimize", "--baseline", str(passing_workspace), "--goal", "timing",
        "--scripted", str(SCRIPTED / "signal_generator"), *extra,
    ])
    assert result.exit_code == 2, result.output
    assert needle in result.output
    assert calls == []
    assert not (passing_workspace / "opt_timing").exists()


@pytest.mark.parametrize("command", ["generate", "optimize"])
def test_missing_testbench_is_usage_error(tmp_path, runner, passing_workspace, monkeypatch,
                                          command):
    calls = []
    monkeypatch.setattr(ScriptedBackend, "complete", lambda self, *a: calls.append(a))
    spec_file = passing_workspace / "spec.json"
    missing = tmp_path / "gone_tb.v"
    spec_file.write_text(json.dumps(dict(json.loads(spec_file.read_text()),
                                         testbench_path=str(missing))))
    args = {
        "generate": ["generate", "--spec", str(spec_file), "--workspace", str(tmp_path / "ws2")],
        "optimize": ["optimize", "--baseline", str(passing_workspace), "--goal", "timing",
                     "--base-report", str(REPORTS / "adder_16bit_base.rpt")],
    }[command]
    result = runner.invoke(main, args + ["--scripted", str(SCRIPTED / "signal_generator")])
    assert result.exit_code == 2, result.output
    assert f"bad spec file {spec_file}: no testbench at {missing}" in result.output
    assert calls == []  # rejected before the first LLM call


def test_generate_workspace_under_a_file_is_an_error(tmp_path, runner):
    (tmp_path / "file").write_text("")
    result = runner.invoke(main, [
        "generate",
        "--spec", str(FIXTURES / "signal_generator_spec.json"),
        "--workspace", str(tmp_path / "file" / "ws"),
        "--scripted", str(SCRIPTED / "signal_generator"),
    ])
    assert result.exit_code == 1
    assert result.output.startswith("error: ") and "Not a directory" in result.output
    assert not isinstance(result.exception, OSError)


@pytest.mark.parametrize("ports, needle", BAD_PORTS)
def test_optimize_bad_baseline_spec_is_usage_error(tmp_path, runner, passing_workspace,
                                                   ports, needle):
    write_spec(passing_workspace / "spec.json", ports)
    result = runner.invoke(main, [
        "optimize", "--baseline", str(passing_workspace), "--goal", "timing",
        "--base-report", str(REPORTS / "adder_16bit_base.rpt"),
        "--scripted", str(SCRIPTED / "signal_generator"),
    ])
    assert result.exit_code == 2, result.output
    assert "bad spec file" in result.output and needle in result.output
    assert not (passing_workspace / "opt_timing").exists()


CARD_DIR = Path(rtlflow.__file__).resolve().parent / "cards"


def no_front_matter(cards):
    (cards / "clock_gating.md").write_text("a card without front-matter\n")
    return cards / "clock_gating.md"


def duplicate_id(cards):
    shutil.copy(cards / "clock_gating.md", cards / "clock_gating_copy.md")
    return cards


def int_id(cards):
    card = cards / "operand_isolation.md"
    card.write_text(card.read_text().replace("id: operand_isolation", "id: 5"))
    return card


def missing_required(cards):
    (cards / "clock_gating.md").unlink()
    return cards


def misspelt_name(cards):
    card = cards / "pipelining.md"
    card.write_text(card.read_text().replace("cp_length > 2", "cp_lenght > 2"))
    return card


def misspelt_key(cards):
    card = cards / "clock_gating.md"
    card.write_text(card.read_text().replace("boost:", "boosts:"))
    return card


def nested_alias(cards):
    card = cards / "carry_lookahead_restructuring.md"
    card.write_text(card.read_text().replace("- path_restructuring", "- [path_restructuring]"))
    return card


def list_caveats(cards):
    card = cards / "clock_gating.md"
    card.write_text(re.sub(r"(?m)^caveats: .*$", "caveats: [adds area, {a: 1}]", card.read_text()))
    return card


def no_predicates(cards):
    card = cards / "clock_gating.md"
    card.write_text(re.sub(r"(?m)^predicates:\n(  - .*\n)+", "predicates: []\n", card.read_text()))
    return card


@pytest.mark.parametrize("fault, needle", [
    pytest.param(no_front_matter, "missing front-matter", id="no-front-matter"),
    pytest.param(no_predicates, "needs at least one predicate", id="no-predicates"),
    pytest.param(duplicate_id, "two cards have id 'clock_gating'", id="duplicate-id"),
    pytest.param(int_id, "id: expected str, got 5", id="int-id"),
    pytest.param(missing_required, "no power card covers ['clock_gating']",
                 id="missing-required-technique"),
    pytest.param(misspelt_name, "unknown name 'cp_lenght' in predicate 'cp_lenght > 2'",
                 id="misspelt-name"),
    pytest.param(misspelt_key, "unknown key 'boosts'", id="misspelt-key"),
    pytest.param(nested_alias, "aliases[0]: expected str, got ['path_restructuring']",
                 id="nested-alias"),
    pytest.param(list_caveats, "caveats: expected str, got ['adds area', {'a': 1}]",
                 id="list-caveats"),
])
def test_optimize_bad_catalog_is_usage_error(tmp_path, runner, passing_workspace, monkeypatch,
                                             fault, needle):
    calls = []
    monkeypatch.setattr(ScriptedBackend, "complete", lambda self, *a: calls.append(a))
    cards = tmp_path / "cards"
    shutil.copytree(CARD_DIR, cards)
    named = fault(cards)
    cfg_file = tmp_path / "run.yaml"
    cfg_file.write_text(f"paths:\n  catalog_dir: {cards}\n")
    result = runner.invoke(main, [
        "optimize", "--baseline", str(passing_workspace), "--goal", "timing",
        "--base-report", str(REPORTS / "adder_16bit_base.rpt"), "--config", str(cfg_file),
        "--scripted", str(SCRIPTED / "signal_generator"),
    ])
    assert result.exit_code == 2, result.output
    assert f"bad technique catalog {cards}: " in result.output
    assert str(named) in result.output and needle in result.output
    assert calls == []  # rejected before the first LLM call
    assert not (passing_workspace / "opt_timing").exists()


def optimize_script(tmp_path, workspace, outcome_kind):
    """A script whose Optimizer replies with the baseline's last revision,
    verified once with `outcome_kind`."""
    script = tmp_path / "opt_script"
    script.mkdir()
    rtl = (workspace / "rev_1.v").read_text()
    (script / "turns.json").write_text(
        json.dumps([{"role": "Optimizer", "reply": f"```verilog\n{rtl}```"}]))
    (script / "outcomes.json").write_text(json.dumps([{"kind": outcome_kind}]))
    return script


def test_optimize_echoes_the_status_it_writes(tmp_path, runner, passing_workspace):
    result = runner.invoke(main, [
        "optimize", "--baseline", str(passing_workspace), "--goal", "timing",
        "--base-report", str(REPORTS / "adder_16bit_base.rpt"),
        "--scripted", str(optimize_script(tmp_path, passing_workspace, "Pass")),
    ])
    assert result.exit_code == 0, result.output
    status = read_status(passing_workspace / "opt_timing")
    assert json.loads(result.output) == status
    assert list(status) == ["goal", "techniques", "rationale", "final_status",
                            "iterations_used", "revisions"]
    assert (status["goal"], status["final_status"], status["revisions"]) == (
        "timing", "Pass", [0])
    read_events(passing_workspace / "opt_timing")  # which ends in a record equal to it


def test_optimize_failed_run_records_fail_status(tmp_path, runner, passing_workspace):
    result = runner.invoke(main, [
        "optimize", "--baseline", str(passing_workspace), "--goal", "timing",
        "--base-report", str(REPORTS / "adder_16bit_base.rpt"),
        "--scripted", str(optimize_script(tmp_path, passing_workspace, "ToolError")),
    ])
    error = "timing variant never passed: ToolError after 1 verification(s)"
    assert result.exit_code == 1, result.output
    assert result.output == f"error: {error}\n"
    ws = passing_workspace / "opt_timing"
    assert [e["event"] for e in read_events(ws)] == ["outcome"]
    status = read_status(ws)
    assert (status["final_status"], status["iterations_used"], status["revisions"]) == (
        "ToolError", 1, [0])


# --- config file ---

def non_default(value, tmp_path):
    """A valid value of the same type that differs from `value`."""
    if value is None:  # the one optional setting is a directory
        return str(tmp_path)
    if isinstance(value, (int, float)):  # an int for a float field: the loader coerces it
        return int(value) + 1
    if isinstance(value, str):
        return value + "_alt"
    if isinstance(value, list):
        return value + ["-alt"]
    raise TypeError(f"no non-default value for {value!r}")


def test_config_round_trips_every_setting(tmp_path):
    defaults = RunConfig()
    doc = {
        section.name: {
            f.name: non_default(getattr(getattr(defaults, section.name), f.name), tmp_path)
            for f in dataclasses.fields(getattr(defaults, section.name))
        }
        for section in dataclasses.fields(RunConfig)
    }
    cfg_file = tmp_path / "run.yaml"
    cfg_file.write_text(yaml.safe_dump(doc))
    cfg = load_config(cfg_file)
    for section, values in doc.items():
        for key, value in values.items():
            default = getattr(getattr(defaults, section), key)
            loaded = getattr(getattr(cfg, section), key)
            assert loaded == value != default, f"{section}.{key}"
            assert type(loaded) is type(value if default is None else default), f"{section}.{key}"


BAD_CONFIGS = [
    pytest.param("tools:\n  compiler: iverilog\n", "unknown key 'tools'", id="section"),
    pytest.param("budget:\n  max_fix_iteration: 1\n",
                 "budget: unknown key 'max_fix_iteration'", id="key"),
    pytest.param("backend: 5\n", "backend: expected a mapping, got 5", id="not-mapping"),
    pytest.param("budget:\n  max_review_rounds: many\n",
                 "budget.max_review_rounds: expected int, got 'many'", id="bad-number"),
    pytest.param("budget:\n  max_review_rounds: '3'\n",
                 "budget.max_review_rounds: expected int, got '3'", id="string-for-int"),
    pytest.param("budget:\n  max_fix_iterations: 0\n",
                 "budget: max_fix_iterations must be >= 1", id="out-of-range"),
    pytest.param("budget:\n  max_fix_iterations: 2.7\n",
                 "budget.max_fix_iterations: expected int, got 2.7", id="fraction-for-int"),
    pytest.param("backend:\n  max_retries: true\n",
                 "backend.max_retries: expected int, got True", id="bool-for-int"),
    pytest.param("toolchain:\n  compile_args: ['-c', 'pass', '{img}']\n",
                 "toolchain: compile_args: unknown placeholder {img} in '{img}'",
                 id="unknown-placeholder"),
    pytest.param("toolchain:\n  simulate_args: ['{rtl}']\n",
                 "toolchain: simulate_args: unknown placeholder {rtl} in '{rtl}'",
                 id="compile-placeholder-in-simulate"),
    pytest.param("toolchain:\n  compile_args: -o sim.out\n",
                 "toolchain.compile_args: expected list, got '-o sim.out'",
                 id="args-not-a-list"),
    pytest.param("toolchain:\n  compile_args: ['{']\n",
                 "toolchain: compile_args: Single '{' encountered in format string in '{'",
                 id="lone-brace"),
    pytest.param("toolchain:\n  compiler: 7\n", "toolchain.compiler: expected str, got 7",
                 id="int-for-compiler"),
    pytest.param("toolchain:\n  pass_marker: 5\n", "toolchain.pass_marker: expected str, got 5",
                 id="int-for-pass-marker"),
    pytest.param("backend:\n  model_name: 3\n", "backend.model_name: expected str, got 3",
                 id="int-for-model-name"),
    pytest.param("paths:\n  catalog_dir: 7\n", "paths.catalog_dir: expected str, got 7",
                 id="int-for-catalog-dir"),
    pytest.param("paths:\n  catalog_dir: no_such_cards\n",
                 "paths: catalog_dir does not exist: no_such_cards", id="missing-catalog-dir"),
    pytest.param("toolchain:\n  sim_timeout: 0\n", "toolchain: sim_timeout must be positive",
                 id="zero-sim-timeout"),
    pytest.param("toolchain:\n  sim_timeout: -5\n", "toolchain: sim_timeout must be positive",
                 id="negative-sim-timeout"),
    pytest.param("toolchain:\n  pass_marker: ''\n", "toolchain: pass_marker must not be empty",
                 id="empty-pass-marker"),
    pytest.param("toolchain:\n  fail_pattern: '('\n",
                 "toolchain: fail_pattern: missing ), unterminated subpattern at position 0 in '('",
                 id="bad-fail-pattern"),
]


@pytest.mark.parametrize("body, needle", BAD_CONFIGS)
def test_config_bad_input_is_rejected(tmp_path, body, needle):
    cfg_file = tmp_path / "run.yaml"
    cfg_file.write_text(body)
    with pytest.raises(BadInput, match=re.escape(f"{cfg_file}: {needle}")):
        load_config(cfg_file)


def test_config_numbers_convert_only_when_nothing_is_lost(tmp_path):
    cfg_file = tmp_path / "run.yaml"
    cfg_file.write_text("budget:\n  max_fix_iterations: 3.0\n  max_review_rounds: 2.0\n"
                        "backend:\n  timeout: 5\n")
    cfg = load_config(cfg_file)
    assert (cfg.budget.max_fix_iterations, cfg.budget.max_review_rounds) == (3, 2)
    assert type(cfg.backend.timeout) is float and cfg.backend.timeout == 5.0


@pytest.mark.parametrize("body, needle", BAD_CONFIGS)
def test_generate_bad_config_is_usage_error(tmp_path, runner, body, needle):
    cfg_file = tmp_path / "run.yaml"
    cfg_file.write_text(body)
    result = runner.invoke(main, [
        "generate",
        "--spec", str(FIXTURES / "signal_generator_spec.json"),
        "--workspace", str(tmp_path / "ws"),
        "--config", str(cfg_file),
        "--scripted", str(SCRIPTED / "signal_generator"),
    ])
    assert result.exit_code == 2
    assert needle in result.output
    assert not (tmp_path / "ws").exists()


def test_config_precedence_flag_beats_file(tmp_path, runner):
    cfg_file = tmp_path / "run.yaml"
    cfg_file.write_text("budget:\n  max_fix_iterations: 1\n")

    def generate(*flags):
        return runner.invoke(main, [
            "generate",
            "--spec", str(FIXTURES / "signal_generator_spec.json"),
            "--workspace", str(tmp_path / "ws"),
            "--config", str(cfg_file),
            "--scripted", str(SCRIPTED / "signal_generator_fail"),
            *flags,
        ])

    assert "BudgetExhausted after 2 iteration(s)" in generate().output
    assert "BudgetExhausted after 4 iteration(s)" in generate("--budget", "3").output


def test_config_invalid_budget_surfaces(tmp_path):
    # an out-of-range budget names the file, the section and the key
    cfg_file = tmp_path / "run.yaml"
    for key in ("max_fix_iterations", "max_review_rounds"):
        cfg_file.write_text(f"budget:\n  {key}: 0\n")
        with pytest.raises(BadInput, match=re.escape(f"{cfg_file}: budget: {key} must be >= 1")):
            load_config(cfg_file)


def test_config_bad_yaml(tmp_path):
    cfg_file = tmp_path / "run.yaml"
    cfg_file.write_text("backend: [unclosed\n")
    with pytest.raises(BadInput):
        load_config(cfg_file)


def test_config_never_leaks_api_key(monkeypatch, caplog):
    monkeypatch.setenv("RTLFLOW_API_KEY", "sk-SECRET-VALUE")
    with caplog.at_level(logging.INFO, logger="rtlflow.config"):
        load_config()
    assert "resolved config: RunConfig(" in caplog.text
    assert "RTLFLOW_API_KEY" in caplog.text
    assert "sk-SECRET-VALUE" not in caplog.text


# --- bench over a scripted suite ---

def make_suite(tmp_path):
    """Three designs: one passes, one exhausts its budget, one has no
    script and errors out."""
    scripted_root = tmp_path / "scripted"
    spec_src = json.loads((FIXTURES / "signal_generator_spec.json").read_text())
    manifest_cases = []
    for name, fixture in [
        ("sig_pass", "signal_generator"),
        ("sig_fail", "signal_generator_fail"),
        ("sig_error", None),
    ]:
        spec = dict(spec_src)
        spec["name"] = name
        spec["testbench_path"] = str(VERILOG / "signal_generator_tb.v")
        spec_path = tmp_path / f"{name}.json"
        spec_path.write_text(json.dumps(spec))
        manifest_cases.append(f"  - spec: {spec_path.name}\n")
        if fixture:
            shutil.copytree(SCRIPTED / fixture, scripted_root / name)
    manifest = tmp_path / "suite.yaml"
    manifest.write_text("cases:\n" + "".join(manifest_cases))
    return manifest, scripted_root


def test_bench_scripted_suite(tmp_path, runner, caplog):
    manifest, scripted_root = make_suite(tmp_path)
    out = tmp_path / "out"
    result = runner.invoke(main, [
        "bench", "--manifest", str(manifest), "--out", str(out),
        "--scripted", str(scripted_root),
    ])
    assert result.exit_code == 0, result.output
    assert "1/3 passed (33.3%)" in result.output
    status = json.loads((out / "status.json").read_text())
    assert status["per_case"]["sig_pass"] == "Pass"
    # no script directory for sig_error: the set-up failed, not the design
    assert status["per_case"]["sig_error"] == "InfraError"
    turns = scripted_root / "turns.json"
    assert status["failure_reasons"]["sig_error"] == (
        f"BadInput: {turns}: [Errno 2] No such file or directory: '{turns}'"
    )
    assert "Traceback" not in caplog.text
    assert (out / "success_table.md").exists()
    assert (out / "ppa_table.csv").exists()


def test_bench_strict_exit_code(tmp_path, runner):
    manifest, scripted_root = make_suite(tmp_path)
    result = runner.invoke(main, [
        "bench", "--manifest", str(manifest), "--out", str(tmp_path / "out"),
        "--scripted", str(scripted_root), "--strict",
    ])
    assert result.exit_code == 1


def test_failed_transcript_write_is_named_by_its_os_error(tmp_path, runner, caplog):
    # the transcript cannot be written: the workspace failed, not the design
    manifest, scripted_root = make_suite(tmp_path)
    out = tmp_path / "out"
    (out / "sig_pass" / "transcript.jsonl").mkdir(parents=True)
    result = runner.invoke(main, [
        "bench", "--manifest", str(manifest), "--out", str(out),
        "--scripted", str(scripted_root),
    ])
    assert result.exit_code == 0, result.output
    status = json.loads((out / "status.json").read_text())
    assert status["per_case"]["sig_pass"] == "InfraError"
    assert status["failure_reasons"]["sig_pass"].startswith("IsADirectoryError:")
    assert "Traceback" not in caplog.text
    result = runner.invoke(main, [
        "generate", "--spec", str(tmp_path / "sig_pass.json"),
        "--workspace", str(out / "sig_pass"), "--scripted", str(scripted_root),
    ])
    assert result.exit_code == 1
    assert [line for line in result.output.splitlines() if line.startswith("error:")] == [
        f"error: [Errno 21] Is a directory: '{out / 'sig_pass' / 'transcript.jsonl'}'"]


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_bench_workers_below_one_is_usage_error(tmp_path, runner, workers):
    manifest, scripted_root = make_suite(tmp_path)
    result = runner.invoke(main, [
        "bench", "--manifest", str(manifest), "--out", str(tmp_path / "out"),
        "--scripted", str(scripted_root), "--workers", workers,
    ])
    assert result.exit_code == 2
    assert "--workers" in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("body, needle", [
    ("cases: []\n", "no cases"),
    ("cases:\n  - spec: a.json\n  - spec: b.json\n", "duplicate design name 'signal_generator'"),
    ("cases: [\n", "invalid YAML"),
    pytest.param("cases:\n  - spec: top.json\n", "top.json: expected a mapping, got [1]",
                 id="spec-not-an-object"),
    pytest.param("cases:\n  - spec: nope.json\n", "nope.json: [Errno 2]", id="spec-missing"),
    pytest.param("cases:\n  spec: a.json\n", "suite.yaml: cases: expected list, got {'spec'",
                 id="cases-a-mapping"),
    pytest.param("cases: [1]\n", "suite.yaml: cases[0]: expected a mapping, got 1",
                 id="case-not-a-mapping"),
    pytest.param("cases:\n  - testbench: tb.v\n", "suite.yaml: cases[0]: missing key 'spec'",
                 id="case-without-spec"),
    pytest.param("cases:\n  - spec: a.json\n    testbench: 5\n",
                 "suite.yaml: cases[0].testbench: expected str, got 5", id="path-not-a-string"),
    pytest.param("cases:\n  - spec: a.json\n    testbench:\n",
                 "suite.yaml: cases[0].testbench: expected str, got None", id="null-testbench"),
    pytest.param('cases:\n  - spec: a.json\n    testbench: ""\n',
                 "suite.yaml: testbench_path must not be empty", id="empty-testbench"),
    pytest.param("cases:\n  - spec: a.json\n    optimized_reports: {timing: null}\n",
                 "suite.yaml: cases[0].optimized_reports.timing: expected str, got None",
                 id="null-optimized-report"),
    pytest.param("cases:\n  - spec: a.json\n    baseline_report: null\n",
                 "suite.yaml: cases[0].baseline_report: expected str, got None",
                 id="null-baseline-report"),
    pytest.param("cases:\n  - spec: name5.json\n", "name5.json: name: expected str, got 5",
                 id="name-not-a-string"),
    pytest.param("cases:\n  - spec: escape.json\n",
                 "escape.json: name must be one path component, got '../escape'",
                 id="name-not-one-component"),
    pytest.param("cases:\n  - spec: notb.json\n",
                 "notb.json: testbench_path must not be empty", id="empty-testbench-path"),
    pytest.param("cases:\n  - spec: a.json\n    optimized_reports: [x]\n",
                 "suite.yaml: cases[0].optimized_reports: expected dict, got ['x']",
                 id="optimized-reports-not-a-mapping"),
    pytest.param("cases:\n  - spec: a.json\n    optimized_reports: {1: a.rpt, timing: b.rpt}\n",
                 "suite.yaml: cases[0].optimized_reports: expected str, got 1",
                 id="optimized-reports-key-not-a-goal"),
    pytest.param("cases:\n  - spec: a.json\n    optimized_reports: {speed: a.rpt}\n",
                 "suite.yaml: cases[0]: optimized_reports key 'speed' is not one of "
                 "('power', 'timing', 'area')", id="optimized-reports-key-an-unknown-goal"),
    pytest.param("cases:\n  - spec: a.json\n    optimized_report: {timing: a.rpt}\n",
                 "suite.yaml: cases[0]: unknown key 'optimized_report'", id="unknown-case-key"),
    pytest.param("cases:\n  - spec: a.json\nworkers: 4\n", "suite.yaml: unknown key 'workers'",
                 id="unknown-top-level-key"),
])
def test_bench_bad_manifest_is_usage_error(tmp_path, runner, body, needle):
    for name in ("a.json", "b.json"):
        shutil.copy(FIXTURES / "signal_generator_spec.json", tmp_path / name)
    (tmp_path / "top.json").write_text("[1]")
    spec = json.loads((FIXTURES / "signal_generator_spec.json").read_text())
    (tmp_path / "name5.json").write_text(json.dumps(dict(spec, name=5)))
    (tmp_path / "escape.json").write_text(json.dumps(dict(spec, name="../escape")))
    (tmp_path / "notb.json").write_text(json.dumps(dict(spec, testbench_path="")))
    manifest = tmp_path / "suite.yaml"
    manifest.write_text(body)
    result = runner.invoke(main, [
        "bench", "--manifest", str(manifest), "--out", str(tmp_path / "out"),
    ])
    assert result.exit_code == 2
    assert needle in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("ports, needle", BAD_PORTS)
def test_bench_bad_ports_is_usage_error(tmp_path, runner, ports, needle):
    write_spec(tmp_path / "a.json", ports)
    manifest = tmp_path / "suite.yaml"
    manifest.write_text("cases:\n  - spec: a.json\n")
    result = runner.invoke(main, [
        "bench", "--manifest", str(manifest), "--out", str(tmp_path / "out"),
    ])
    assert result.exit_code == 2, result.output
    assert f"bad manifest: {(tmp_path / 'a.json').resolve()}: " in result.output
    assert needle in result.output
    assert not (tmp_path / "out").exists()
