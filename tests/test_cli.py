import json
import shutil

import pytest
from click.testing import CliRunner

from conftest import FIXTURES, REPORTS, SCRIPTED, VERILOG

from rtlflow.cli import main
from rtlflow.config import load_config
from rtlflow.errors import ConfigParseError, InvalidBudget


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


def test_generate_bad_spec(tmp_path, runner):
    bad = tmp_path / "spec.json"
    bad.write_text("{not json")
    result = runner.invoke(main, [
        "generate", "--spec", str(bad), "--workspace", str(tmp_path / "ws"),
    ])
    assert result.exit_code == 2
    assert "bad spec" in result.output


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


# --- config precedence ---

def test_config_precedence_flag_beats_file(tmp_path):
    cfg_file = tmp_path / "run.yaml"
    cfg_file.write_text("budget:\n  max_fix_iterations: 3\n")
    file_only = load_config(cfg_file)
    assert file_only.budget.max_fix_iterations == 3
    overridden = load_config(cfg_file, {"max_fix_iterations": 7})
    assert overridden.budget.max_fix_iterations == 7


def test_config_invalid_budget_surfaces(tmp_path):
    cfg_file = tmp_path / "run.yaml"
    cfg_file.write_text("budget:\n  max_fix_iterations: 0\n")
    with pytest.raises(InvalidBudget):
        load_config(cfg_file)


def test_config_bad_yaml(tmp_path):
    cfg_file = tmp_path / "run.yaml"
    cfg_file.write_text("backend: [unclosed\n")
    with pytest.raises(ConfigParseError):
        load_config(cfg_file)


def test_config_never_leaks_api_key(monkeypatch):
    monkeypatch.setenv("RTLFLOW_API_KEY", "sk-SECRET-VALUE")
    cfg = load_config()
    blob = json.dumps(cfg.to_log_dict())
    assert "sk-SECRET-VALUE" not in blob
    assert "$RTLFLOW_API_KEY (redacted)" in blob


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


def test_bench_scripted_suite(tmp_path, runner):
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
])
def test_bench_bad_manifest_is_usage_error(tmp_path, runner, body, needle):
    for name in ("a.json", "b.json"):
        shutil.copy(FIXTURES / "signal_generator_spec.json", tmp_path / name)
    manifest = tmp_path / "suite.yaml"
    manifest.write_text(body)
    result = runner.invoke(main, [
        "bench", "--manifest", str(manifest), "--out", str(tmp_path / "out"),
    ])
    assert result.exit_code == 2
    assert needle in result.output
    assert not (tmp_path / "out").exists()
