"""A pipeline fuzzer: suites of scripted cases whose replies may be valid,
malformed or meant for another role, over any sequence of verify outcomes.

Whatever the script, every case must end in a way its own workspace
states: `events.jsonl` ends in an `end` record equal to `status.json`, which
agrees with the last `outcome` record that was not superseded, or is an
`Error` whose type and message are the reason the case was charged with.
Each verify has its own revision: the `outcome` records' revisions strictly
increase, and no `diagnosis` record is about a superseded one.
No case may reach `bench._run_case`'s generic crash branch, and no helper
thread or `events.jsonl` handle may outlive the suite.

Nor may thread timing change a run: the same suites, and `optimize` runs
over the adder, give the same statuses, reasons and files when every
backend and toolchain call is first delayed by a random few milliseconds.
"""

import json
import random
import tempfile
import threading
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REPORTS, VERILOG, JitteredBackend, JitteredToolchain, read_events

from rtlflow import bench
from rtlflow.bench import BenchCase, run_suite
from rtlflow.engine import DesignSpec, PipelineBudget, Port, RtlArtifact
from rtlflow.errors import RtlflowError
from rtlflow.gateway import Gateway, ScriptedBackend
from rtlflow.metrics import parse_report
from rtlflow.optimizer import OptimizationGoal, load_catalog, optimize
from rtlflow.toolchain import ScriptedToolchain, VerificationOutcome

CODE = """```verilog
module toy (input clk, output reg [3:0] q);
    // STEP 1: register
    reg [3:0] count;
    // STEP 2: always block
    always @(posedge clk) begin
        // STEP 3: counting
        count <= count + 1;
        // STEP 4: output
        q <= count;
    end
endmodule
```"""


def review(*missing: int, steps: int = 4) -> str:
    return "\n".join(f"STEP {i}: {'MISSING' if i in missing else 'IMPLEMENTED'} - e{i}"
                     for i in range(1, steps + 1))


# each role's replies that move a four-step plan along
VALID = {
    "Planner": ["1. a\n2. b\n3. c\n4. d"],
    "Programmer": [CODE, CODE.replace("count + 1", "count + 4'd1"),
                   CODE.replace("// STEP 4: output\n        ", ""),
                   CODE.replace("```verilog\n", "```verilog\n// FIX 1: widen\n")],
    "Reviewer": [review(), review(4), review(2, 3)],
    "Evaluator": ["1. widen the counter", "1. reset it\n2. widen it"],
}
# replies that fit no role's parser, or fit it only for another plan
MISFIT = ["No plan is needed.", "1. only step", "No code, sorry.",
          "```verilog\nassign y = 1;\n```", "STEP 9: IMPLEMENTED - phantom", review(steps=3),
          "The counter looks wrong; widen it."]
# what a reply may be replaced by: a misfit, or a reply meant for any role
ANY_REPLY = [reply for replies in VALID.values() for reply in replies] + MISFIT
OUTCOMES = [
    VerificationOutcome("Pass"),
    VerificationOutcome("SyntaxFail", failing_checks=["toy.v:3: syntax error"]),
    VerificationOutcome("FunctionalFail", failing_checks=["ERROR: q mismatch"]),
    VerificationOutcome("ToolError", failing_checks=["simulation timed out"]),
]


@st.composite
def scripts(draw) -> tuple[dict[str, list[str]], list[VerificationOutcome]]:
    """A case's script: each role's replies in order (perhaps too few), up
    to two of them replaced by one that does not fit or is meant for another
    role, and the outcomes of its verifies (perhaps too few)."""
    turns = {role: draw(st.lists(st.sampled_from(fits), min_size=1, max_size=6))
             for role, fits in VALID.items()}
    for _ in range(draw(st.integers(0, 2))):
        replies = turns[draw(st.sampled_from(list(turns)))]
        replies[draw(st.integers(0, len(replies) - 1))] = draw(st.sampled_from(ANY_REPLY))
    return turns, draw(st.lists(st.sampled_from(OUTCOMES), min_size=1, max_size=5))


def check_case(design: str, ws: Path, status: str, reason: str) -> None:
    """The case's `events.jsonl` ends in an `end` record, equal to its
    `status.json`, that states how it ended, as the suite recorded it."""
    *records, end = [json.loads(line) for line in (ws / "events.jsonl").read_text().splitlines()]
    assert end == {"event": "end", **json.loads((ws / "status.json").read_text())}
    assert end["design"] == design
    verified = [e["revision"] for e in records if e["event"] == "outcome"]
    assert verified == sorted(set(verified)), verified
    assert all("superseded" not in e for e in records if e["event"] == "diagnosis")
    if end["final_status"] == "Error":
        assert status in ("Fail", "InfraError")
        assert reason == f"{end['error_type']}: {end['error']}", (reason, end)
        return
    outcomes = [e for e in records if e["event"] == "outcome" and not e.get("superseded")]
    assert end["revisions"] == [e["revision"] for e in outcomes]
    last = outcomes[-1]["kind"]
    final = end["final_status"]
    if final == "BudgetExhausted":
        assert last in ("SyntaxFail", "FunctionalFail")
    else:
        assert final == last and final in ("Pass", "ToolError")
    expected = {"Pass": "Pass", "SyntaxFail": "SyntaxFail"}.get(last, "Fail")
    assert status == ("Fail" if final == "ToolError" else expected), (status, end)


@settings(max_examples=40, deadline=None, database=None)
@given(cases=st.lists(scripts(), min_size=1, max_size=3),
       max_fix_iterations=st.integers(1, 3), max_review_rounds=st.integers(1, 2))
def test_every_case_end_is_recorded_in_its_workspace(cases, max_fix_iterations,
                                                     max_review_rounds):
    budget = PipelineBudget(max_fix_iterations, max_review_rounds)
    designs = [f"case{i}" for i in range(len(cases))]
    script = dict(zip(designs, cases))
    handles = []
    real_event = Gateway.event

    def event(gw, *args, **kwargs):
        handles.append(gw._events)
        real_event(gw, *args, **kwargs)

    def gateway(design):
        turns = [(role, reply) for role, rs in script[design][0].items() for reply in rs]
        return Gateway(ScriptedBackend(turns))

    def toolchain(design):
        return ScriptedToolchain(script[design][1])

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "tb.v").write_text("module tb; endmodule\n")
        suite = [BenchCase(DesignSpec(d, "toy design", "toy", [Port("clk", "in")],
                                      str(root / "tb.v"))) for d in designs]
        for workers in (1, 2):
            out = root / f"out{workers}"
            threads_before = threading.active_count()
            with mock.patch.object(bench.log, "error") as crashed, \
                    mock.patch.object(Gateway, "event", event):
                summary = run_suite(suite, gateway, toolchain, budget, out, workers=workers)
            assert not crashed.called, crashed.call_args
            assert threading.active_count() == threads_before
            assert all(h.closed for h in handles)
            for design in designs:
                check_case(design, out / design, summary.per_case[design],
                           summary.failure_reasons.get(design, ""))


# --- thread timing ---

def doubles(turns: dict[str, list[str]], outcomes, workspace: Path, rng=None):
    """A gateway with a fixed run id and clock, writing its transcript in
    `workspace`, and a toolchain; with `rng`, each of their calls first
    sleeps a random 0-3 ms."""
    flat = [(role, reply) for role, replies in turns.items() for reply in replies]
    backend = ScriptedBackend(flat) if rng is None else JitteredBackend(flat, rng)
    toolchain = ScriptedToolchain(outcomes) if rng is None else JitteredToolchain(outcomes, rng)
    gateway = Gateway(backend, transcript_path=workspace / "transcript.jsonl", run_id="fuzz",
                      clock=lambda: 0.0)
    return gateway, toolchain


def written(root: Path) -> dict[str, bytes]:
    """The bytes of every run log and status under `root`, by relative path."""
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*"))
            if path.name in ("events.jsonl", "transcript.jsonl", "status.json")}


CLA_REPLY = "```verilog\n" + (VERILOG / "adder_16bit_cla.v").read_text() + "```"
FIXED_CLA_REPLY = CLA_REPLY.replace("```verilog\n", "```verilog\n// FIX 1: carry\n")
ADDER = RtlArtifact((VERILOG / "adder_16bit.v").read_text())
ADDER_REPORT = parse_report((REPORTS / "adder_16bit_base.rpt").read_text())
CATALOG = load_catalog()


@st.composite
def optimize_scripts(draw) -> tuple[dict[str, list[str]], list[VerificationOutcome]]:
    """An `optimize` run's script over the adder: perhaps no variant, fixes
    and rewrites that may not parse, and the outcomes of its verifies."""
    code = [CLA_REPLY, FIXED_CLA_REPLY, "No code, sorry."]
    turns = {"Optimizer": draw(st.lists(st.sampled_from(code), max_size=1)),
             "Evaluator": draw(st.lists(st.sampled_from([*VALID["Evaluator"], MISFIT[-1]]),
                                        max_size=3)),
             "Programmer": draw(st.lists(st.sampled_from(code), max_size=3))}
    return turns, draw(st.lists(st.sampled_from(OUTCOMES), min_size=1, max_size=4))


def optimize_end(turns, outcomes, budget, workspace: Path, rng) -> str:
    """How an `optimize` run ends: its variant's revision, or its error."""
    gateway, toolchain = doubles(turns, outcomes, workspace, rng)
    try:
        variant = optimize(ADDER, ADDER_REPORT, OptimizationGoal("timing"), gateway, toolchain,
                           budget, VERILOG / "adder_16bit_tb.v", workspace, CATALOG)
    except RtlflowError as exc:
        return f"{type(exc).__name__}: {exc}"
    return f"Pass at revision {variant.rtl.revision}"


@settings(max_examples=40, deadline=None, database=None)
@given(cases=st.lists(scripts(), min_size=1, max_size=3),
       runs=st.lists(optimize_scripts(), max_size=2),
       max_fix_iterations=st.integers(1, 3), max_review_rounds=st.integers(1, 2),
       seed=st.integers(0, 2**32 - 1))
def test_thread_timing_changes_no_status_and_no_file(cases, runs, max_fix_iterations,
                                                     max_review_rounds, seed):
    budget = PipelineBudget(max_fix_iterations, max_review_rounds)
    designs = [f"case{i}" for i in range(len(cases))]
    script = dict(zip(designs, cases))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "tb.v").write_text("module tb; endmodule\n")
        suite = [BenchCase(DesignSpec(d, "toy design", "toy", [Port("clk", "in")],
                                      str(root / "tb.v"))) for d in designs]

        def run(out: Path, rng):
            gateways, toolchains = {}, {}
            for design, (turns, outcomes) in script.items():
                gateways[design], toolchains[design] = doubles(turns, outcomes, out / design, rng)
            summary = run_suite(suite, gateways.__getitem__, toolchains.__getitem__, budget, out,
                                workers=2)
            ends = [optimize_end(turns, outcomes, budget, out / f"opt{i}", rng)
                    for i, (turns, outcomes) in enumerate(runs)]
            return summary.per_case, summary.failure_reasons, ends, written(out)

        plain = run(root / "plain", None)
        jittered = run(root / "jittered", random.Random(seed))
        assert jittered[:3] == plain[:3]
        assert jittered[3] == plain[3]


class Ordered(ScriptedBackend):
    """The `second` role's call waits until the `first` role's call has
    ended, returned or raised, so the two end in that order."""

    def __init__(self, turns, first: str, second: str):
        super().__init__(turns)
        self.first, self.second = first, second
        self.ended = threading.Event()

    def complete(self, role_name, messages):
        if role_name == self.second and not self.ended.wait(5):
            raise TimeoutError(f"{self.first} never called")
        try:
            return super().complete(role_name, messages)
        finally:
            if role_name == self.first:
                self.ended.set()


@pytest.mark.parametrize("first, second", [("Evaluator", "Reviewer"), ("Reviewer", "Evaluator")],
                         ids=["evaluator-first", "reviewer-first"])
def test_a_role_out_of_turns_fails_alike_in_either_order(tmp_path, first, second):
    # the script has no Reviewer turn; the Evaluator is asked about the
    # failing verify while the review is under way, and takes its turn
    # before or after the Reviewer finds none
    turns = [("Planner", VALID["Planner"][0]), ("Programmer", CODE),
             ("Evaluator", VALID["Evaluator"][0])]
    (tmp_path / "tb.v").write_text("module tb; endmodule\n")
    spec = DesignSpec("toy", "toy design", "toy", [Port("clk", "in")], str(tmp_path / "tb.v"))
    out = tmp_path / "out"
    gateway = Gateway(Ordered(turns, first, second),
                      transcript_path=out / "toy" / "transcript.jsonl", run_id="fuzz",
                      clock=lambda: 0.0)
    summary = run_suite([BenchCase(spec)], lambda _: gateway,
                        lambda _: ScriptedToolchain([OUTCOMES[2]]), PipelineBudget(), out)
    assert summary.per_case == {"toy": "InfraError"}
    assert summary.failure_reasons == {
        "toy": "ScriptExhausted: no scripted turns left (role Reviewer)"}
    assert gateway.backend.ended.is_set()
    assert [(e["event"], e.get("superseded")) for e in read_events(out / "toy")] == [
        ("plan", None), ("outcome", True)]
