"""Start-up cost boundaries: which modules an import pulls in, and YAML
parsing under both of PyYAML's safe loaders."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from conftest import FIXTURES

import rtlflow
from rtlflow import errors
from rtlflow.bench import load_manifest
from rtlflow.config import load_config
from rtlflow.errors import BadInput, RtlflowError
from rtlflow.optimizer import _parse_card, load_catalog

SRC = Path(rtlflow.__file__).resolve().parent.parent

LOADERS = [
    pytest.param(yaml.SafeLoader, id="python"),
    pytest.param(
        getattr(yaml, "CSafeLoader", None),
        id="libyaml",
        marks=pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml"),
    ),
]


# --- import boundary ---

def modules_loaded_by(statement: str, names: tuple[str, ...]) -> list[str]:
    """Which of `names` a fresh interpreter has loaded after `statement`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = f"import sys\n{statement}\nprint(*[m for m in {names!r} if m in sys.modules])\n"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_import_does_not_load_requests():
    """Only HttpBackend needs `requests`; it imports it on first send."""
    assert modules_loaded_by(
        "import rtlflow.bench, rtlflow.optimizer, rtlflow.cli", ("requests",)
    ) == []


def test_library_import_does_not_load_subprocess_or_uuid():
    """`subprocess` is loaded by the first real tool run, run ids come from
    os.urandom, `bench` runs its cases on plain threads and `fix_loop`
    imports `concurrent.futures` for its helper only when a run starts, so
    a library import needs none of these three modules."""
    assert modules_loaded_by(
        "import rtlflow.bench, rtlflow.optimizer", ("subprocess", "uuid", "concurrent.futures")
    ) == []


# --- loader parity ---

def load_everything():
    return (
        load_catalog(),
        load_manifest(FIXTURES / "suite.yaml"),
        load_config(FIXTURES / "run.yaml"),
    )


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
def test_libyaml_and_python_loaders_agree(monkeypatch):
    monkeypatch.setattr(errors, "LOADER", yaml.SafeLoader)
    python_side = load_everything()
    monkeypatch.setattr(errors, "LOADER", yaml.CSafeLoader)
    libyaml_side = load_everything()

    cards, cases, cfg = libyaml_side
    assert len(cards) == 15
    assert [c.spec.name for c in cases] == ["signal_generator", "adder_16bit"]
    assert cfg.toolchain.compile_args[0] == "-g2012"
    assert cfg.budget.max_review_rounds == 1
    assert cfg.paths.catalog_dir is None  # `catalog_dir: null` loads
    assert libyaml_side == python_side


@pytest.mark.parametrize("loader", LOADERS)
def test_malformed_card_yaml(monkeypatch, loader):
    monkeypatch.setattr(errors, "LOADER", loader)
    text = "---\nid: [unclosed\ngoal: power\n---\nSummary.\n\n```verilog\nx\n```\n"
    with pytest.raises(RtlflowError, match="bad front-matter"):
        _parse_card(text, "bad.md")


@pytest.mark.parametrize("loader", LOADERS)
def test_malformed_config_yaml(monkeypatch, loader, tmp_path):
    monkeypatch.setattr(errors, "LOADER", loader)
    cfg_file = tmp_path / "run.yaml"
    cfg_file.write_text("backend: [unclosed\n")
    with pytest.raises(BadInput):
        load_config(cfg_file)
