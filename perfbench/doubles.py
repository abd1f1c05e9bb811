"""Backend and toolchain doubles injected into rtlflow.

The backend is rtlflow's own ScriptedBackend behind a call counter and an
optional latency model. The toolchain double replays recorded iverilog/vvp
invocations through rtlflow's real `toolchain.classify`, after an optional
modelled compile+simulate wait. Neither double persists anything: the real
IcarusToolchain also writes inv_*.json files, which these runs omit.
"""

from __future__ import annotations

import time

from rtlflow.errors import ToolchainUnavailable
from rtlflow.gateway import ScriptedBackend
from rtlflow.toolchain import ToolInvocation, classify

# The latency model of the waiting suites, scaled down about 500 times
# from real LLM latency: each backend call sleeps LLM_BASE_S plus
# LLM_PER_CHAR_S per prompt and reply character, each verify call
# VERIFY_BASE_S plus VERIFY_PER_LINE_S per recorded log line.
LLM_BASE_S = 0.02
LLM_PER_CHAR_S = 5e-7
VERIFY_BASE_S = 0.01
VERIFY_PER_LINE_S = 5e-7


def load_records(raw: list[dict]) -> list[tuple]:
    """Recorded verify calls as (compile, simulate-or-None, log lines)."""
    return [
        (ToolInvocation(**r["compile"]),
         ToolInvocation(**r["simulate"]) if r["simulate"] else None,
         r["lines"])
        for r in raw
    ]


class ModelledBackend:
    """Replays a case's scripted replies; with `latency` each call sleeps
    the modelled LLM latency."""

    def __init__(self, turns: list[dict], latency: bool, tracer):
        self.inner = ScriptedBackend([(t["role"], t["reply"]) for t in turns])
        self.latency = latency
        self.tracer = tracer
        self.calls = 0
        self.prompt_chars = 0

    @property
    def exhausted(self) -> bool:
        return self.inner.cursor == len(self.inner.turns)

    def complete(self, role_name, messages) -> str:
        chars = sum(len(m.content) for m in messages)
        with self.tracer.span("gateway.complete", prompt_chars=chars):
            reply = self.inner.complete(role_name, messages)
            self.calls += 1
            self.prompt_chars += chars
            if self.latency:
                time.sleep(LLM_BASE_S + LLM_PER_CHAR_S * (chars + len(reply)))
        return reply


class LogToolchain:
    """Replays recorded invocations in order and classifies them."""

    def __init__(self, records: list[tuple], latency: bool, tracer):
        self.records = records
        self.latency = latency
        self.tracer = tracer
        self.cursor = 0
        self.kinds: list[str] = []

    def verify(self, rtl_path, tb_path, workspace):
        with self.tracer.span("toolchain.verify"):
            if self.cursor >= len(self.records):
                raise ToolchainUnavailable("recorded toolchain out of invocations")
            comp, sim, lines = self.records[self.cursor]
            self.cursor += 1
            if self.latency:
                with self.tracer.span("toolchain.verify_wait"):
                    time.sleep(VERIFY_BASE_S + VERIFY_PER_LINE_S * lines)
            with self.tracer.span("toolchain.classify", lines=lines):
                outcome = classify(comp, sim)
            self.kinds.append(outcome.kind)
            return outcome
