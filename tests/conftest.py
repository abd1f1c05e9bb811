import ipaddress
import json
import random
import shutil
import socket
import threading
import time
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

import rtlflow
from rtlflow.cli import main
from rtlflow.engine import DesignSpec, PipelineBudget
from rtlflow.errors import BackendUnavailable
from rtlflow.gateway import Gateway, ScriptedBackend
from rtlflow.toolchain import ScriptedToolchain

FIXTURES = Path(__file__).parent / "fixtures"
DATA = Path(__file__).parent / "data"
VERILOG = FIXTURES / "verilog"
REPORTS = FIXTURES / "reports"
SCRIPTED = FIXTURES / "scripted"
CARDS = Path(rtlflow.__file__).resolve().parent / "cards"

COMMANDS = {  # "{}" is the directory `make_inputs` fills
    "generate": ["generate", "--spec", "{}/spec.json", "--workspace", "{}/gen",
                 "--config", "{}/run.yaml", "--scripted", "{}/scripted"],
    # the baseline report is ws/synth_report.txt, the default
    "optimize": ["optimize", "--baseline", "{}/ws", "--goal", "timing",
                 "--config", "{}/run.yaml",
                 "--scripted", "{}/opt_script"],
    "inspect": ["inspect", "{}/top.v"],
    "report compare": ["report", "compare", "--base", "{}/base.rpt", "--opt", "{}/opt.rpt"],
    "bench": ["bench", "--manifest", "{}/suite.yaml", "--out", "{}/out",
              "--config", "{}/run.yaml", "--scripted", "{}/scripted"],
}


def make_inputs(root: Path) -> Path:
    """Fill the absolute directory `root` with every input file of COMMANDS,
    each of which then succeeds, and return it."""
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


@pytest.fixture(autouse=True)
def no_thread_left():
    """Fail a test that leaves alive a thread it did not find: a helper that
    outlives its run is a leak, however the run ended."""
    before = set(threading.enumerate())
    yield
    left = [t for t in threading.enumerate() if t not in before]
    assert left == [], f"threads left alive: {left}"


def _loopback(host) -> bool:
    try:
        return host in (None, "localhost") or ipaddress.ip_address(host).is_loopback
    except ValueError:
        return False


@pytest.fixture(autouse=True)
def no_network(monkeypatch):
    """Make a name lookup or a connect beyond loopback raise at once, so a
    test whose input check regresses into a real backend call fails instead
    of reaching the network. RuntimeError is not an OSError, so no retry
    loop takes it for a transient failure."""
    connect, connect_ex, getaddrinfo = (socket.socket.connect, socket.socket.connect_ex,
                                        socket.getaddrinfo)

    def guard(host):
        if not _loopback(host):
            raise RuntimeError(f"tests may not reach the network: {host!r}")

    def guarded(real):
        def call(sock, address):
            if sock.family in (socket.AF_INET, socket.AF_INET6):
                guard(address[0])
            return real(sock, address)
        return call

    def guarded_getaddrinfo(host, *args, **kwargs):
        guard(host)
        return getaddrinfo(host, *args, **kwargs)

    monkeypatch.setattr(socket.socket, "connect", guarded(connect))
    monkeypatch.setattr(socket.socket, "connect_ex", guarded(connect_ex))
    monkeypatch.setattr(socket, "getaddrinfo", guarded_getaddrinfo)


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


class EvaluatorDown(ScriptedBackend):
    """Every Evaluator call fails as an unreachable backend does."""

    def complete(self, role_name, messages):
        if role_name == "Evaluator":
            raise BackendUnavailable("backend failed after 4 attempt(s): 503")
        return super().complete(role_name, messages)


class JitteredBackend(ScriptedBackend):
    """Each call first sleeps a random 0 to `most` seconds drawn from `rng`."""

    def __init__(self, turns, rng: random.Random, most: float = 0.003):
        super().__init__(turns)
        self.rng, self.most = rng, most

    def complete(self, role_name, messages):
        time.sleep(self.rng.uniform(0.0, self.most))
        return super().complete(role_name, messages)


class JitteredToolchain(ScriptedToolchain):
    """Each verify first sleeps a random 0 to `most` seconds drawn from `rng`."""

    def __init__(self, outcomes, rng: random.Random, most: float = 0.003):
        super().__init__(outcomes)
        self.rng, self.most = rng, most

    def verify(self, rtl_path, tb_path, workspace):
        time.sleep(self.rng.uniform(0.0, self.most))
        return super().verify(rtl_path, tb_path, workspace)


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
    """The records of a run's `events.jsonl` before its `end` record, in
    order, once the `end` record is found last and equal to the run's
    `status.json`, as every end of a run leaves them."""
    *records, end = [json.loads(line)
                     for line in (workspace / "events.jsonl").read_text().splitlines()]
    assert end == {"event": "end", **read_status(workspace)}
    return records


def read_status(workspace: Path) -> dict:
    """A run's `status.json`."""
    return json.loads((workspace / "status.json").read_text())


def load_table3():
    return json.loads((DATA / "table3.json").read_text())


def transcript_roles(path) -> list[str]:
    """The role of each exchange in a transcript, in order."""
    return [line["role"] for line in map(json.loads, path.read_text().splitlines())
            if line["direction"] == "reply"]
