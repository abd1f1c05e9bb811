"""Scripted generate and optimize runs persist the recorded workspace files.

The manifest maps each workspace file to the SHA-256 of its text, with the
run id, the timestamps and the fixtures' absolute path normalised. After a
deliberate change to what a run writes, replace the manifest with the one
the failure message prints.
"""

import hashlib
import json
import re

from click.testing import CliRunner

from conftest import DATA, FIXTURES, REPORTS, SCRIPTED

from rtlflow.cli import main

GOLDEN = DATA / "workspace_golden.json"

_RUN_ID = re.compile(r'"run_id": "[0-9a-f]+"')
_TIMESTAMP = re.compile(r'"timestamp": [0-9.eE+-]+')


def normalised(text: str) -> str:
    text = _RUN_ID.sub('"run_id": "<run_id>"', text)
    text = _TIMESTAMP.sub('"timestamp": 0', text)
    return text.replace(str(FIXTURES.resolve()), "<fixtures>")


def digests(root) -> dict[str, str]:
    return {
        path.relative_to(root).as_posix():
            hashlib.sha256(normalised(path.read_text(encoding="utf-8")).encode()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def run_workspaces(tmp_path):
    """A passing generate run, a budget-exhausted one, and an optimize run
    on the passing workspace; returns the directory holding the first two."""
    runner = CliRunner()
    root = tmp_path / "runs"
    spec = str(FIXTURES / "signal_generator_spec.json")

    def invoke(*args):
        return runner.invoke(main, [str(a) for a in args])

    result = invoke("generate", "--spec", spec, "--workspace", root / "pass",
                    "--scripted", SCRIPTED / "signal_generator")
    assert result.exit_code == 0, result.output
    result = invoke("generate", "--spec", spec, "--workspace", root / "budget", "--budget", 3,
                    "--scripted", SCRIPTED / "signal_generator_fail")
    assert result.exit_code == 1, result.output

    script = tmp_path / "opt_script"
    script.mkdir()
    rtl = (root / "pass" / "rev_1.v").read_text()
    (script / "turns.json").write_text(
        json.dumps([{"role": "Optimizer", "reply": f"```verilog\n{rtl}```"}]))
    (script / "outcomes.json").write_text(
        json.dumps([{"kind": "Pass", "diagnostics": [], "failing_checks": []}]))
    result = invoke("optimize", "--baseline", root / "pass", "--goal", "timing",
                    "--base-report", REPORTS / "adder_16bit_base.rpt",
                    "--opt-report", REPORTS / "adder_16bit_opt_timing.rpt",
                    "--scripted", script)
    assert result.exit_code == 0, result.output
    return root


def test_workspaces_match_golden(tmp_path):
    got = digests(run_workspaces(tmp_path))
    want = json.loads(GOLDEN.read_text())
    differ = sorted(name for name in got.keys() | want.keys() if got.get(name) != want.get(name))
    assert not differ, (
        f"workspace files differ from {GOLDEN.name}: {differ}\n"
        f"new manifest:\n{json.dumps(got, indent=2, sort_keys=True)}"
    )
