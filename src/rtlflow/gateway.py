"""Chat backends and per-role sessions with full transcript capture.

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
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from .errors import (
    BackendUnavailable,
    RoleMismatch,
    ScriptExhausted,
    SinkWriteError,
    read_input,
)

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


class ScriptedBackend:
    """Deterministic replay backend.

    Matches on role name and turn order, never on prompt text, so prompt
    templates can evolve without breaking recorded scripts.
    """

    def __init__(self, turns: list[tuple[str, str]]):
        for role_name, reply in turns:
            if role_name not in ROLE_NAMES:
                raise ValueError(f"unknown role in script: {role_name!r}")
            if not reply:
                raise ValueError("scripted reply must be non-empty")
        self.turns = list(turns)
        self.cursor = 0

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedBackend":
        return read_input(path, lambda text: cls([(t["role"], t["reply"])
                                                  for t in json.loads(text)]))

    def complete(self, role_name: str, messages: list[ChatMessage]) -> str:
        if self.cursor >= len(self.turns):
            raise ScriptExhausted(f"no scripted turns left (role {role_name})")
        expected_role, reply = self.turns[self.cursor]
        if expected_role != role_name:
            raise RoleMismatch(
                f"script turn {self.cursor} expects {expected_role}, got {role_name}"
            )
        self.cursor += 1
        return reply


class TranscriptWriter:
    """Append-only JSONL sink; one line per message, one append per call."""

    def __init__(self, path: str | Path, run_id: str, clock: Callable[[], float] = time.time):
        self.path = Path(path)
        self.run_id = run_id
        self.clock = clock
        self._seq = 0

    def write(self, role_name: str, *messages: ChatMessage) -> None:
        """Append the messages in order; `seq` advances only once they are written."""
        lines = "".join(
            json.dumps(
                {
                    "run_id": self.run_id,
                    "role": role_name,
                    "direction": "reply" if message.role_tag == "assistant" else "prompt",
                    "seq": self._seq + i,
                    "timestamp": self.clock(),
                    "content": message.content,
                },
                ensure_ascii=False,
            ) + "\n"
            for i, message in enumerate(messages)
        )
        try:
            with self.path.open("a", encoding="utf-8") as fh:
                fh.write(lines)
        except OSError as exc:
            raise SinkWriteError(str(exc)) from exc
        self._seq += len(messages)


@dataclass
class RoleSession:
    """One role call: each send is one request carrying the optional system
    message and the prompt text, and one transcript append."""

    role_name: str
    backend: object
    transcript: Optional[TranscriptWriter] = None
    system: Optional[ChatMessage] = None

    def __post_init__(self):
        if self.role_name not in ROLE_NAMES:
            raise ValueError(f"unknown role: {self.role_name!r}")

    def send(self, prompt: str) -> str:
        """The reply text to `prompt`, sent as the user message."""
        request = [user(prompt)] if self.system is None else [self.system, user(prompt)]
        reply = self.backend.complete(self.role_name, request)
        if self.transcript is not None:
            self.transcript.write(self.role_name, *request, ChatMessage("assistant", reply))
        return reply


class Gateway:
    """Factory binding sessions to one backend and one transcript sink."""

    def __init__(
        self,
        backend,
        transcript_path: Optional[str | Path] = None,
        run_id: Optional[str] = None,
        clock: Callable[[], float] = time.time,
    ):
        self.backend = backend
        self.run_id = run_id or os.urandom(16).hex()
        self.transcript = (
            TranscriptWriter(transcript_path, self.run_id, clock)
            if transcript_path is not None
            else None
        )

    def session(self, role_name: str, system_prompt: Optional[str] = None) -> RoleSession:
        return RoleSession(
            role_name, self.backend, self.transcript,
            system(system_prompt) if system_prompt else None,
        )
