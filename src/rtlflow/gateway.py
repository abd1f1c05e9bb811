"""Chat backends, per-role sessions and the writer of a run's records.

Every role in the pipeline talks through a RoleSession bound to a backend:
either an HTTP chat-completion endpoint or a deterministic scripted double
used by tests and offline runs. Each send is one request: the session's
optional system message plus the prompt.
"""

from __future__ import annotations

import json
import logging
import os
import random
import threading
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, TextIO

from .errors import BackendUnavailable, ScriptExhausted, build, read_input

log = logging.getLogger(__name__)

ROLE_NAMES = ("Planner", "Programmer", "Reviewer", "Evaluator", "Optimizer")
ROLE_TAGS = ("system", "user", "assistant")


@dataclass(frozen=True)
class ChatMessage:
    role_tag: str
    content: str

    def __post_init__(self):
        if self.role_tag not in ROLE_TAGS:
            raise ValueError(f"bad role_tag: {self.role_tag!r}")
        if not self.content:
            raise ValueError("message content must be non-empty")


def user(content: str) -> ChatMessage:
    return ChatMessage("user", content)


def system(content: str) -> ChatMessage:
    return ChatMessage("system", content)


@dataclass
class BackendConfig:
    endpoint_url: str = "https://api.openai.com/v1/chat/completions"
    model_name: str = "gpt-4o"
    api_key_env: str = "RTLFLOW_API_KEY"
    temperature: float = 0.2
    max_retries: int = 3
    timeout: float = 30.0

    def __post_init__(self):
        if not 0.0 <= self.temperature <= 1.0:
            raise ValueError("temperature must be in [0, 1]")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")


def _transient(exc: Exception) -> bool:
    """Worth retrying: failures without an HTTP response (transport errors,
    timeouts, malformed reply bodies) and HTTP 408, 429 and 5xx. Any other
    4xx would fail the same way again."""
    resp = getattr(exc, "response", None)
    if resp is None:
        return True
    return resp.status_code in (408, 429) or resp.status_code >= 500


def _retry_after(exc: Exception) -> Optional[int]:
    """The integer seconds a 429 or 503 reply asks the client to wait in its
    Retry-After header; None for any other reply, or an HTTP-date or
    malformed value."""
    resp = getattr(exc, "response", None)
    if resp is None or resp.status_code not in (429, 503):
        return None
    value = resp.headers.get("Retry-After", "").strip()
    return int(value) if value.isdecimal() else None


class HttpBackend:
    """Generic chat-completion client: messages array in, one assistant
    message out. Retries transient failures after a jittered exponential
    backoff (a uniform draw from [0, 0.5 * 2**attempt] seconds), or after
    exactly the seconds a 429 or 503 reply's Retry-After names; a body of
    the wrong shape, or whose content is not a non-empty string, counts as
    malformed.

    `requests` is imported on the first send, so runs that never use this
    backend do not pay for loading it."""

    def __init__(self, config: BackendConfig, sleeper: Callable[[float], None] = time.sleep):
        self.config = config
        self._sleep = sleeper

    def complete(self, role_name: str, messages: list[ChatMessage]) -> str:
        import requests

        cfg = self.config
        payload = {
            "model": cfg.model_name,
            "temperature": cfg.temperature,
            "messages": [{"role": m.role_tag, "content": m.content} for m in messages],
        }
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(cfg.api_key_env, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"

        last_exc: Optional[Exception] = None
        for attempt in range(1 + cfg.max_retries):
            try:
                resp = requests.post(
                    cfg.endpoint_url, json=payload, headers=headers, timeout=cfg.timeout
                )
                resp.raise_for_status()
                content = resp.json()["choices"][0]["message"]["content"]
                if not isinstance(content, str) or not content:
                    raise ValueError(f"reply content is {content!r}")
                return content
            except (requests.RequestException, KeyError, IndexError, TypeError, ValueError) as exc:
                last_exc = exc
                log.warning("%s backend attempt %d failed: %r", role_name, attempt + 1, exc)
                if not _transient(exc):
                    break
                if attempt < cfg.max_retries:
                    delay = _retry_after(exc)
                    if delay is None:  # full jitter: clients retrying together spread out
                        delay = random.uniform(0.0, 0.5 * 2 ** attempt)
                    self._sleep(delay)
        raise BackendUnavailable(f"backend failed after {attempt + 1} attempt(s): {last_exc!r}")


@dataclass
class _Turn:
    """One entry of a scripted `turns.json`."""

    role: str
    reply: str


class ScriptedBackend:
    """Deterministic replay backend.

    Replays each role's turns in script order, matching on role name, never
    on prompt text, so prompt templates can evolve without breaking recorded
    scripts. Roles may call from different threads at once: each call takes
    its role's next turn under a lock, or raises `ScriptExhausted` when its
    role has none left, so how calls of different roles interleave changes
    no reply and no error. `cursor` counts the turns consumed.
    """

    def __init__(self, turns: list[tuple[str, str]]):
        for role_name, reply in turns:
            if role_name not in ROLE_NAMES:
                raise ValueError(f"unknown role in script: {role_name!r}")
            if not reply:
                raise ValueError("scripted reply must not be empty")
        self.turns = list(turns)
        self.cursor = 0
        self._replies: dict[str, deque[str]] = {}
        for role_name, reply in self.turns:
            self._replies.setdefault(role_name, deque()).append(reply)
        self._lock = threading.Lock()

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedBackend":
        return read_input(path, lambda text: cls([(t.role, t.reply) for t in
                                                  build(list[_Turn], json.loads(text))]))

    def complete(self, role_name: str, messages: list[ChatMessage]) -> str:
        with self._lock:
            replies = self._replies.get(role_name)
            if not replies:
                raise ScriptExhausted(f"no scripted turns left (role {role_name})")
            self.cursor += 1
            return replies.popleft()


@dataclass
class RoleSession:
    """One role call: each send is one request carrying the optional system
    message and the prompt text, and one transcript append."""

    role_name: str
    backend: object
    transcript: Optional[Gateway] = None  # or anything else with its `write`
    system: Optional[ChatMessage] = None

    def __post_init__(self):
        if self.role_name not in ROLE_NAMES:
            raise ValueError(f"unknown role: {self.role_name!r}")

    def send(self, prompt: str) -> str:
        """The reply text to `prompt`, sent as the user message. The request
        and the reply are written to the transcript, when the session has
        one, in one append."""
        request = [user(prompt)] if self.system is None else [self.system, user(prompt)]
        reply = self.backend.complete(self.role_name, request)
        if self.transcript is not None:
            self.transcript.write(self.role_name, *request, ChatMessage("assistant", reply))
        return reply


def _append(fh: TextIO, *records: dict) -> None:
    """Write the records as compact JSON lines in one write, and flush them."""
    fh.write("".join(json.dumps(r, ensure_ascii=False, separators=(",", ":")) + "\n"
                     for r in records))
    fh.flush()


class Gateway:
    """Binds sessions to one backend, and is the one writer of a run's
    records: `events.jsonl` and, given a path, the transcript, one line per
    message and one append per call; `write` does nothing with no transcript open."""

    def __init__(self, backend, transcript_path: Optional[str | Path] = None,
                 run_id: Optional[str] = None, clock: Callable[[], float] = time.time):
        self.backend = backend
        self._path = None if transcript_path is None else Path(transcript_path)
        # a run id is drawn only for a transcript, the one thing that names it
        self._run_id = (run_id or os.urandom(16).hex()) if self._path else None
        self._clock = clock
        self._seq = 0
        self._events = self._transcript = None  # the run's files, open from `start` to `end`

    @property
    def started(self) -> bool:
        return self._events is not None

    def start(self, events_path: str | Path) -> None:
        """Open `events_path` and the transcript, emptied, and number the next
        message 0. A run whose `events_path` cannot be opened has not started;
        one whose transcript cannot keeps `events.jsonl` open for `end`."""
        self._seq = 0
        self._events = Path(events_path).open("w", encoding="utf-8")
        if self._path is not None:
            self._transcript = self._path.open("w", encoding="utf-8")

    def event(self, kind: str, /, **fields) -> None:
        _append(self._events, {"event": kind, **fields})

    def write(self, role_name: str, *messages: ChatMessage) -> None:
        """Append the messages in order, in one write; `seq` advances only
        once they are written. A failed write raises its `OSError`."""
        if self._transcript is None:
            return
        _append(self._transcript, *(
            {"run_id": self._run_id, "role": role_name,
             "direction": "reply" if message.role_tag == "assistant" else "prompt",
             "seq": self._seq + i, "timestamp": self._clock(), "content": message.content}
            for i, message in enumerate(messages)))
        self._seq += len(messages)

    def end(self, status: dict) -> None:
        """Append `status` as the `end` record; close both files, even if that fails."""
        events, transcript = self._events, self._transcript
        self._events = self._transcript = None
        with events, transcript or nullcontext():
            _append(events, {"event": "end", **status})

    def session(self, role_name: str, system_prompt: Optional[str] = None) -> RoleSession:
        return RoleSession(role_name, self.backend, self,
                           system(system_prompt) if system_prompt else None)
