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

from conftest import FIXTURES, REPORTS, SCRIPTED, VERILOG

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
    for body in ("{not json", "[1]", json.dumps(dict(spec, testbench_path=5)),
                 json.dumps(dict(spec, name=5))):
        bad.write_text(body)
        result = runner.invoke(main, [
            "generate", "--spec", str(bad), "--workspace", str(tmp_path / "ws"),
        ])
        assert result.exit_code == 2, (body, result.output)
        assert "bad spec" in result.output


CLK = {"name": "clk", "direction": "in", "width": 1}

BAD_PORTS = [
    pytest.param([dict(CLK, bits=1)], "'bits'", id="unknown-key"),
    pytest.param([{"name": "clk", "width": 1}], "'direction'", id="missing-key"),
    pytest.param(["clk"], "bad port 'clk'", id="not-a-mapping"),
    pytest.param({"clk": CLK}, "ports must be a list", id="ports-not-a-list"),
    pytest.param([dict(CLK, width="8")], "port clk needs an integer width", id="string-width"),
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
    assert result.exit_code == 1
    assert "error" in result.output


def test_report_compare_unreadable_path(runner):
    result = runner.invoke(main, [
        "report", "compare", "--base", str(FIXTURES), "--opt", str(REPORTS / "adder_16bit_base.rpt"),
    ])
    assert result.exit_code == 1
    assert "error:" in result.output
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


GOOD_REPORT = (REPORTS / "adder_16bit_base.rpt").read_text()
JUNK_REPORT = "nothing here\n"
ZERO_REPORT = GOOD_REPORT.replace("dynamic_power: 19.62", "dynamic_power: 0")


@pytest.mark.parametrize("base_text, opt_text, needle", [
    pytest.param(JUNK_REPORT, GOOD_REPORT, "bad synthesis report {base}", id="junk-base"),
    pytest.param(GOOD_REPORT, JUNK_REPORT, "bad synthesis report {opt}", id="junk-opt"),
    pytest.param(ZERO_REPORT, GOOD_REPORT, "cannot compare {base} with {opt}", id="zero-base"),
])
def test_optimize_bad_report_is_usage_error(tmp_path, runner, passing_workspace, monkeypatch,
                                            base_text, opt_text, needle):
    calls = []
    monkeypatch.setattr(ScriptedBackend, "complete", lambda self, *a: calls.append(a))
    base, opt = tmp_path / "base.rpt", tmp_path / "opt.rpt"
    base.write_text(base_text)
    opt.write_text(opt_text)
    result = runner.invoke(main, [
        "optimize", "--baseline", str(passing_workspace), "--goal", "timing",
        "--base-report", str(base), "--opt-report", str(opt),
        "--scripted", str(SCRIPTED / "signal_generator"),
    ])
    assert result.exit_code == 2, result.output
    assert needle.format(base=base, opt=opt) in result.output
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


def missing_required(cards):
    (cards / "clock_gating.md").unlink()
    return cards


@pytest.mark.parametrize("fault, needle", [
    pytest.param(no_front_matter, "missing front-matter", id="no-front-matter"),
    pytest.param(duplicate_id, "two cards have id 'clock_gating'", id="duplicate-id"),
    pytest.param(missing_required, "no power card covers ['clock_gating']",
                 id="missing-required-technique"),
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


def test_optimize_reports_improvement(tmp_path, runner, passing_workspace):
    script = tmp_path / "opt_script"
    script.mkdir()
    rtl = (passing_workspace / "rev_1.v").read_text()
    (script / "turns.json").write_text(
        json.dumps([{"role": "Optimizer", "reply": f"```verilog\n{rtl}```"}]))
    (script / "outcomes.json").write_text(
        json.dumps([{"kind": "Pass", "diagnostics": [], "failing_checks": []}]))
    result = runner.invoke(main, [
        "optimize", "--baseline", str(passing_workspace), "--goal", "timing",
        "--base-report", str(REPORTS / "adder_16bit_base.rpt"),
        "--opt-report", str(REPORTS / "adder_16bit_opt_timing.rpt"),
        "--scripted", str(script),
    ])
    assert result.exit_code == 0, result.output
    status = json.loads((passing_workspace / "opt_timing" / "status.json").read_text())
    assert status["final_status"] == "Pass"
    assert status["improvement"]["cell_area"] == "58.7"
    assert "awaiting_report" not in status


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
    pytest.param("tools:\n  compiler: iverilog\n", "unknown section 'tools'", id="section"),
    pytest.param("budget:\n  max_fix_iteration: 1\n",
                 "budget: unknown key 'max_fix_iteration'", id="key"),
    pytest.param("backend: 5\n", "backend: section must be a mapping", id="not-mapping"),
    pytest.param("budget:\n  max_review_rounds: many\n",
                 "budget.max_review_rounds: invalid literal for int()", id="bad-number"),
    pytest.param("budget:\n  max_fix_iterations: 0\n",
                 "budget: max_fix_iterations must be >= 1", id="out-of-range"),
]


@pytest.mark.parametrize("body, needle", BAD_CONFIGS)
def test_config_bad_input_is_rejected(tmp_path, body, needle):
    cfg_file = tmp_path / "run.yaml"
    cfg_file.write_text(body)
    with pytest.raises(BadInput, match=re.escape(f"{cfg_file}: {needle}")):
        load_config(cfg_file)


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
    pytest.param("cases:\n  - spec: top.json\n", "top.json: spec must be a JSON object, got list",
                 id="spec-not-an-object"),
    pytest.param("cases:\n  - spec: nope.json\n", "nope.json: [Errno 2]", id="spec-missing"),
    pytest.param("cases: [1]\n", "suite.yaml: each case needs a 'spec' entry, got 1",
                 id="case-not-a-mapping"),
    pytest.param("cases:\n  - testbench: tb.v\n", "suite.yaml: each case needs a 'spec' entry",
                 id="case-without-spec"),
    pytest.param("cases:\n  - spec: a.json\n    testbench: 5\n",
                 "suite.yaml: a path must be a string, got 5", id="path-not-a-string"),
    pytest.param("cases:\n  - spec: name5.json\n", "name5.json: name must be a string, got 5",
                 id="name-not-a-string"),
    pytest.param("cases:\n  - spec: a.json\n    optimized_reports: [x]\n",
                 "suite.yaml: optimized_reports must be a mapping, got ['x']",
                 id="optimized-reports-not-a-mapping"),
])
def test_bench_bad_manifest_is_usage_error(tmp_path, runner, body, needle):
    for name in ("a.json", "b.json"):
        shutil.copy(FIXTURES / "signal_generator_spec.json", tmp_path / name)
    (tmp_path / "top.json").write_text("[1]")
    spec = json.loads((FIXTURES / "signal_generator_spec.json").read_text())
    (tmp_path / "name5.json").write_text(json.dumps(dict(spec, name=5)))
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
