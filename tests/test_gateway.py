import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

from conftest import FIXTURES, RecordingBackend

from rtlflow.bench import BenchCase, run_suite
from rtlflow.engine import DesignSpec, PipelineBudget
from rtlflow.errors import BackendUnavailable, RoleMismatch, ScriptExhausted, SinkWriteError
from rtlflow.gateway import (
    BackendConfig,
    ChatMessage,
    Gateway,
    HttpBackend,
    RoleSession,
    ScriptedBackend,
    TranscriptWriter,
    system,
    user,
)
from rtlflow.toolchain import ScriptedToolchain


def test_chat_message_validation():
    with pytest.raises(ValueError):
        ChatMessage("user", "")
    with pytest.raises(ValueError):
        ChatMessage("robot", "hi")


def test_scripted_replay_advances_cursor():
    backend = RecordingBackend([("Planner", "1. step one\n2. step two\n3. three\n4. four")])
    session = RoleSession("Planner", backend)
    reply = session.send("plan it")
    assert reply.startswith("1. step one")
    assert backend.cursor == 1
    assert backend.requests == [[user("plan it")]]


def test_scripted_exhaustion():
    session = RoleSession("Planner", ScriptedBackend([]))
    with pytest.raises(ScriptExhausted):
        session.send("anything")


def test_scripted_role_mismatch():
    backend = ScriptedBackend([("Programmer", "module m; endmodule")])
    session = RoleSession("Reviewer", backend)
    with pytest.raises(RoleMismatch):
        session.send("review this")


def test_each_send_is_one_request():
    # no earlier exchange is carried into the next request; the system message is
    backend = RecordingBackend([("Planner", "a"), ("Planner", "b"), ("Optimizer", "c")])
    gateway = Gateway(backend)
    planner = gateway.session("Planner")
    planner.send("one")
    planner.send("two")
    gateway.session("Optimizer", system_prompt="cards").send("three")
    assert backend.requests == [
        [user("one")], [user("two")], [system("cards"), user("three")],
    ]


def test_transcript_lines_and_idempotence(tmp_path):
    # each message of a send is written exactly once, prompt before reply
    sink = TranscriptWriter(tmp_path / "t.jsonl", run_id="r1", clock=lambda: 0.0)
    session = RoleSession("Planner", ScriptedBackend([("Planner", "a")]), transcript=sink)
    session.send("q")
    lines = (tmp_path / "t.jsonl").read_text().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["direction"] == "prompt" and first["role"] == "Planner"
    assert json.loads(lines[1])["direction"] == "reply"
    assert [json.loads(l)["seq"] for l in lines] == [0, 1]


@pytest.fixture
def opens(monkeypatch):
    """Path -> the mode arguments of each `Path.open` of it during the test."""
    seen: dict[Path, list] = {}
    real_open = Path.open

    def recording_open(self, *args, **kwargs):
        seen.setdefault(self, []).append(args)
        return real_open(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", recording_open)
    return seen


def test_exchange_is_one_append(tmp_path, opens):
    path = tmp_path / "t.jsonl"
    sink = TranscriptWriter(path, run_id="r1", clock=lambda: 0.0)
    session = RoleSession("Planner", ScriptedBackend([("Planner", "a"), ("Planner", "b")]),
                          transcript=sink)
    session.send("q1")
    session.send("q2")
    assert opens[path] == [("a",), ("a",)]
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert [(l["seq"], l["direction"], l["content"]) for l in lines] == [
        (0, "prompt", "q1"), (1, "reply", "a"), (2, "prompt", "q2"), (3, "reply", "b"),
    ]


def test_system_session_is_one_request_and_one_append(tmp_path, opens):
    path = tmp_path / "t.jsonl"
    backend = RecordingBackend([("Optimizer", "variant")])
    gateway = Gateway(backend, transcript_path=path, run_id="r1", clock=lambda: 0.0)
    session = gateway.session("Optimizer", system_prompt="cards")
    assert path not in opens  # opening a session writes nothing
    session.send("baseline")
    assert backend.requests == [[system("cards"), user("baseline")]]
    assert opens[path] == [("a",)]
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert [(l["seq"], l["role"], l["direction"], l["content"]) for l in lines] == [
        (0, "Optimizer", "prompt", "cards"),
        (1, "Optimizer", "prompt", "baseline"),
        (2, "Optimizer", "reply", "variant"),
    ]


def test_failing_sink_does_not_advance_seq(tmp_path):
    path = tmp_path / "missing_dir" / "t.jsonl"
    sink = TranscriptWriter(path, run_id="r1", clock=lambda: 0.0)
    session = RoleSession("Planner", ScriptedBackend([("Planner", "a"), ("Planner", "b")]),
                          transcript=sink)
    with pytest.raises(SinkWriteError):
        session.send("q1")
    path.parent.mkdir()
    session.send("q2")
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert [(l["seq"], l["content"]) for l in lines] == [(0, "q2"), (1, "b")]


def test_empty_session_writes_nothing(tmp_path):
    # a send whose backend fails leaves the session, and so the sink, empty
    sink = TranscriptWriter(tmp_path / "t.jsonl", run_id="r1")
    session = RoleSession("Planner", ScriptedBackend([]), transcript=sink)
    with pytest.raises(ScriptExhausted):
        session.send("q")
    assert not (tmp_path / "t.jsonl").exists()


def test_scripted_transcripts_are_byte_identical(tmp_path):
    def run(path):
        backend = ScriptedBackend([("Planner", "x"), ("Programmer", "y")])
        gw = Gateway(backend, transcript_path=path, run_id="fixed", clock=lambda: 0.0)
        gw.session("Planner").send("p")
        gw.session("Programmer").send("q")
        return path.read_bytes()

    assert run(tmp_path / "a.jsonl") == run(tmp_path / "b.jsonl")


class _FlakyHandler(BaseHTTPRequestHandler):
    failures_left = 2
    failure_status = 500
    reply_content = "stub reply"  # bytes are served as the whole body
    retry_after = None  # Retry-After header value sent with each failure
    hits = 0

    def do_POST(self):
        type(self).hits += 1
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        if type(self).failures_left > 0:
            type(self).failures_left -= 1
            self.send_response(type(self).failure_status)
            if type(self).retry_after is not None:
                self.send_header("Retry-After", type(self).retry_after)
            self.end_headers()
            return
        content = type(self).reply_content
        body = content if isinstance(content, bytes) else json.dumps(
            {"choices": [{"message": {"role": "assistant", "content": content}}]}
        ).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def flaky_server():
    _FlakyHandler.failures_left = 2
    _FlakyHandler.failure_status = 500
    _FlakyHandler.reply_content = "stub reply"
    _FlakyHandler.retry_after = None
    _FlakyHandler.hits = 0
    server = HTTPServer(("127.0.0.1", 0), _FlakyHandler)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()
    server.server_close()


def test_http_retry_recovers_after_two_failures(flaky_server):
    cfg = BackendConfig(endpoint_url=flaky_server, max_retries=3, timeout=5.0)
    backend = HttpBackend(cfg, sleeper=lambda s: None)
    session = RoleSession("Planner", backend)
    reply = session.send("hello")
    assert reply == "stub reply"
    assert _FlakyHandler.hits == 3


def test_http_retry_bound(flaky_server):
    _FlakyHandler.failures_left = 99
    cfg = BackendConfig(endpoint_url=flaky_server, max_retries=2, timeout=5.0)
    backend = HttpBackend(cfg, sleeper=lambda s: None)
    with pytest.raises(BackendUnavailable, match="after 3 attempt"):
        backend.complete("Planner", [user("hello")])
    assert _FlakyHandler.hits == 1 + cfg.max_retries


@pytest.mark.parametrize("status", [408, 429])
def test_http_retries_transient_status(flaky_server, status):
    _FlakyHandler.failure_status = status
    cfg = BackendConfig(endpoint_url=flaky_server, max_retries=3, timeout=5.0)
    backend = HttpBackend(cfg, sleeper=lambda s: None)
    assert backend.complete("Planner", [user("hello")]) == "stub reply"
    assert _FlakyHandler.hits == 3


BACKOFF = None  # the jittered backoff, not a Retry-After wait


@pytest.mark.parametrize("status, retry_after, sleeps", [
    pytest.param(429, "7", [7, 7], id="429-seconds"),
    pytest.param(503, "0", [0, 0], id="503-zero"),
    pytest.param(429, None, BACKOFF, id="no-header"),
    pytest.param(503, "Wed, 21 Oct 2015 07:28:00 GMT", BACKOFF, id="http-date"),
    pytest.param(429, "1.5", BACKOFF, id="malformed"),
    pytest.param(500, "7", BACKOFF, id="other-status"),
])
def test_http_retry_after_replaces_backoff(flaky_server, status, retry_after, sleeps):
    _FlakyHandler.failure_status = status
    _FlakyHandler.retry_after = retry_after
    slept = []
    cfg = BackendConfig(endpoint_url=flaky_server, max_retries=3, timeout=5.0)
    backend = HttpBackend(cfg, sleeper=slept.append)
    assert backend.complete("Planner", [user("hello")]) == "stub reply"
    if sleeps is BACKOFF:
        assert len(slept) == 2 and all(0 <= s <= 0.5 * 2 ** i for i, s in enumerate(slept))
    else:
        assert slept == sleeps


def test_http_backoff_is_jittered(flaky_server):
    # attempt i sleeps a uniform draw from [0, 0.5 * 2**i]; a fixed step would repeat
    _FlakyHandler.failures_left = 99
    slept = []
    cfg = BackendConfig(endpoint_url=flaky_server, max_retries=3, timeout=5.0)
    backend = HttpBackend(cfg, sleeper=slept.append)
    for _ in range(10):
        with pytest.raises(BackendUnavailable, match="after 4 attempt"):
            backend.complete("Planner", [user("hello")])
    draws = [slept[i::3] for i in range(3)]
    for i, attempt in enumerate(draws):
        assert len(attempt) == 10 and all(0 <= s <= 0.5 * 2 ** i for s in attempt)
        assert len(set(attempt)) > 1


@pytest.mark.parametrize("status", [400, 401, 404])
def test_http_client_error_is_not_retried(flaky_server, status):
    _FlakyHandler.failure_status = status
    sleeps = []
    cfg = BackendConfig(endpoint_url=flaky_server, max_retries=3, timeout=5.0)
    backend = HttpBackend(cfg, sleeper=sleeps.append)
    with pytest.raises(BackendUnavailable, match="after 1 attempt"):
        backend.complete("Planner", [user("hello")])
    assert _FlakyHandler.hits == 1
    assert sleeps == []


def test_http_connection_refused_is_retried():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    # nothing listens on the port once the socket is closed
    cfg = BackendConfig(endpoint_url=f"http://127.0.0.1:{port}/", max_retries=2, timeout=5.0)
    backend = HttpBackend(cfg, sleeper=lambda s: None)
    with pytest.raises(BackendUnavailable, match="after 3 attempt"):
        backend.complete("Planner", [user("hello")])


@pytest.mark.parametrize("content", [
    None,
    "",
    pytest.param(5, id="content-not-a-string"),
    pytest.param(b"[]", id="body-a-list"),
    pytest.param(b'{"choices": [{"message": null}]}', id="message-null"),
])
def test_http_empty_reply_is_retried_then_unavailable(flaky_server, content):
    _FlakyHandler.failures_left = 0
    _FlakyHandler.reply_content = content
    cfg = BackendConfig(endpoint_url=flaky_server, max_retries=2, timeout=5.0)
    backend = HttpBackend(cfg, sleeper=lambda s: None)
    with pytest.raises(BackendUnavailable, match="after 3 attempt"):
        backend.complete("Planner", [user("hello")])
    assert _FlakyHandler.hits == 1 + cfg.max_retries


@pytest.mark.parametrize("content", [None, ""])
def test_http_empty_reply_is_infra_error_in_bench(flaky_server, content, tmp_path, caplog):
    _FlakyHandler.failures_left = 0
    _FlakyHandler.reply_content = content
    cfg = BackendConfig(endpoint_url=flaky_server, max_retries=1, timeout=5.0)
    spec = DesignSpec.from_json(FIXTURES / "signal_generator_spec.json")
    summary = run_suite(
        [BenchCase(spec=spec)],
        lambda design: Gateway(HttpBackend(cfg, sleeper=lambda s: None)),
        lambda design: ScriptedToolchain([]),
        PipelineBudget(),
        tmp_path,
    )
    assert summary.per_case == {"signal_generator": "InfraError"}
    assert summary.failure_reasons["signal_generator"].startswith(
        "BackendUnavailable: backend failed after 2 attempt(s)"
    )
    assert "Traceback" not in caplog.text
    assert _FlakyHandler.hits == 2


def test_backend_config_validation():
    with pytest.raises(ValueError):
        BackendConfig(temperature=1.5)
    with pytest.raises(ValueError):
        BackendConfig(max_retries=-1)
    with pytest.raises(ValueError):
        BackendConfig(timeout=0)
