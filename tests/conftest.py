import json
from pathlib import Path

import pytest

from rtlflow.engine import DesignSpec, PipelineBudget
from rtlflow.gateway import Gateway, ScriptedBackend
from rtlflow.toolchain import ScriptedToolchain

FIXTURES = Path(__file__).parent / "fixtures"
DATA = Path(__file__).parent / "data"
VERILOG = FIXTURES / "verilog"
REPORTS = FIXTURES / "reports"
SCRIPTED = FIXTURES / "scripted"


@pytest.fixture
def fixtures_dir():
    return FIXTURES


@pytest.fixture
def signal_generator_spec():
    return DesignSpec.from_json(FIXTURES / "signal_generator_spec.json")


@pytest.fixture
def budget():
    return PipelineBudget()


class RecordingBackend(ScriptedBackend):
    """ScriptedBackend that keeps the messages of every request it receives."""

    def __init__(self, turns):
        super().__init__(turns)
        self.requests: list[list] = []

    def complete(self, role_name, messages):
        self.requests.append(list(messages))
        return super().complete(role_name, messages)


def scripted_gateway(script_dir: Path, tmp_path: Path, run_id="test-run") -> Gateway:
    """Gateway over the recorded turns with a deterministic clock."""
    backend = ScriptedBackend.from_file(script_dir / "turns.json")
    counter = iter(range(10_000))
    return Gateway(
        backend,
        transcript_path=tmp_path / "transcript.jsonl",
        run_id=run_id,
        clock=lambda: float(next(counter)),
    )


def scripted_toolchain(script_dir: Path) -> ScriptedToolchain:
    return ScriptedToolchain.from_file(script_dir / "outcomes.json")


def read_events(workspace: Path) -> list[dict]:
    """The records of a run's `events.jsonl`, in order."""
    return [json.loads(line) for line in (workspace / "events.jsonl").read_text().splitlines()]


def load_table3():
    return json.loads((DATA / "table3.json").read_text())
