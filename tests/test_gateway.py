import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from rtlflow.errors import BackendUnavailable, RoleMismatch, ScriptExhausted
from rtlflow.gateway import (
    BackendConfig,
    ChatMessage,
    Gateway,
    HttpBackend,
    RoleSession,
    ScriptedBackend,
    TranscriptWriter,
    record_transcript,
    user,
)


def test_chat_message_validation():
    with pytest.raises(ValueError):
        ChatMessage("user", "")
    with pytest.raises(ValueError):
        ChatMessage("robot", "hi")


def test_scripted_replay_advances_cursor():
    backend = ScriptedBackend([("Planner", "1. step one\n2. step two\n3. three\n4. four")])
    session = RoleSession("Planner", backend)
    reply = session.send(user("plan it"))
    assert reply.content.startswith("1. step one")
    assert backend.cursor == 1
    assert [m.role_tag for m in session.history] == ["user", "assistant"]


def test_scripted_exhaustion():
    session = RoleSession("Planner", ScriptedBackend([]))
    with pytest.raises(ScriptExhausted):
        session.send(user("anything"))


def test_scripted_role_mismatch():
    backend = ScriptedBackend([("Programmer", "module m; endmodule")])
    session = RoleSession("Reviewer", backend)
    with pytest.raises(RoleMismatch):
        session.send(user("review this"))


def test_send_rejects_non_user_prompt():
    session = RoleSession("Planner", ScriptedBackend([("Planner", "ok")]))
    with pytest.raises(ValueError):
        session.send(ChatMessage("assistant", "nope"))


def test_history_only_appends():
    backend = ScriptedBackend([("Planner", "a"), ("Planner", "b")])
    session = RoleSession("Planner", backend)
    session.send(user("one"))
    snapshot = list(session.history)
    session.send(user("two"))
    assert session.history[:2] == snapshot
    assert len(session.history) == 4


def test_transcript_lines_and_idempotence(tmp_path):
    sink = TranscriptWriter(tmp_path / "t.jsonl", run_id="r1", clock=lambda: 0.0)
    session = RoleSession("Planner", ScriptedBackend([("Planner", "a")]), transcript=sink)
    session.send(user("q"))
    record_transcript(session, sink)  # re-emission must not duplicate
    record_transcript(session, sink)
    lines = (tmp_path / "t.jsonl").read_text().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["direction"] == "prompt" and first["role"] == "Planner"
    assert json.loads(lines[1])["direction"] == "reply"
    assert [json.loads(l)["seq"] for l in lines] == [0, 1]


def test_empty_session_writes_nothing(tmp_path):
    sink = TranscriptWriter(tmp_path / "t.jsonl", run_id="r1")
    session = RoleSession("Planner", ScriptedBackend([]))
    record_transcript(session, sink)
    assert not (tmp_path / "t.jsonl").exists()


def test_scripted_transcripts_are_byte_identical(tmp_path):
    def run(path):
        backend = ScriptedBackend([("Planner", "x"), ("Programmer", "y")])
        gw = Gateway(backend, transcript_path=path, run_id="fixed", clock=lambda: 0.0)
        gw.session("Planner").send(user("p"))
        gw.session("Programmer").send(user("q"))
        return path.read_bytes()

    assert run(tmp_path / "a.jsonl") == run(tmp_path / "b.jsonl")


class _FlakyHandler(BaseHTTPRequestHandler):
    failures_left = 2
    failure_status = 500
    hits = 0

    def do_POST(self):
        type(self).hits += 1
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        if type(self).failures_left > 0:
            type(self).failures_left -= 1
            self.send_response(type(self).failure_status)
            self.end_headers()
            return
        body = json.dumps(
            {"choices": [{"message": {"role": "assistant", "content": "stub reply"}}]}
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
    reply = session.send(user("hello"))
    assert reply.content == "stub reply"
    assert backend.attempts_made == 3
    assert _FlakyHandler.hits == 3


def test_http_retry_bound(flaky_server):
    _FlakyHandler.failures_left = 99
    cfg = BackendConfig(endpoint_url=flaky_server, max_retries=2, timeout=5.0)
    backend = HttpBackend(cfg, sleeper=lambda s: None)
    with pytest.raises(BackendUnavailable):
        backend.complete("Planner", [user("hello")])
    assert backend.attempts_made == 1 + cfg.max_retries


@pytest.mark.parametrize("status", [408, 429])
def test_http_retries_transient_status(flaky_server, status):
    _FlakyHandler.failure_status = status
    cfg = BackendConfig(endpoint_url=flaky_server, max_retries=3, timeout=5.0)
    backend = HttpBackend(cfg, sleeper=lambda s: None)
    assert backend.complete("Planner", [user("hello")]) == "stub reply"
    assert backend.attempts_made == 3


@pytest.mark.parametrize("status", [400, 401, 404])
def test_http_client_error_is_not_retried(flaky_server, status):
    _FlakyHandler.failure_status = status
    sleeps = []
    cfg = BackendConfig(endpoint_url=flaky_server, max_retries=3, timeout=5.0)
    backend = HttpBackend(cfg, sleeper=sleeps.append)
    with pytest.raises(BackendUnavailable, match="after 1 attempt"):
        backend.complete("Planner", [user("hello")])
    assert backend.attempts_made == 1
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
    assert backend.attempts_made == 3


def test_backend_config_validation():
    with pytest.raises(ValueError):
        BackendConfig(temperature=1.5)
    with pytest.raises(ValueError):
        BackendConfig(max_retries=-1)
    with pytest.raises(ValueError):
        BackendConfig(timeout=0)
