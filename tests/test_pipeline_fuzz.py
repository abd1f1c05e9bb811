"""A pipeline fuzzer: suites of scripted cases whose replies may be valid,
malformed or meant for another role, over any sequence of verify outcomes.

Whatever the script, every case must end in a way its own workspace
states: `status.json` agrees with the last `outcome` record that was not
superseded, or is an `Error` naming the exception the case was charged
with. No case may reach `bench._run_case`'s generic crash branch, and no
helper thread or `events.jsonl` handle may outlive the suite.
"""

import json
import tempfile
import threading
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import read_events

from rtlflow import bench, engine
from rtlflow.bench import BenchCase, run_suite
from rtlflow.engine import DesignSpec, PipelineBudget, Port
from rtlflow.gateway import Gateway, ScriptedBackend
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
    """The case's `status.json` states how it ended, as the suite recorded it."""
    recorded = json.loads((ws / "status.json").read_text())
    assert recorded["design"] == design
    if recorded["final_status"] == "Error":
        assert status in ("Fail", "InfraError")
        assert reason.endswith(f": {recorded['error']}"), (reason, recorded)
        return
    outcomes = [e for e in read_events(ws) if e["event"] == "outcome" and not e.get("superseded")]
    assert recorded["revisions"] == [e["revision"] for e in outcomes]
    last = outcomes[-1]["kind"]
    final = recorded["final_status"]
    if final == "BudgetExhausted":
        assert last in ("SyntaxFail", "FunctionalFail")
    else:
        assert final == last and final in ("Pass", "ToolError")
    expected = {"Pass": "Pass", "SyntaxFail": "SyntaxFail"}.get(last, "Fail")
    assert status == ("Fail" if final == "ToolError" else expected), (status, recorded)


@settings(max_examples=40, deadline=None, database=None)
@given(cases=st.lists(scripts(), min_size=1, max_size=3),
       max_fix_iterations=st.integers(1, 3), max_review_rounds=st.integers(1, 2))
def test_every_case_end_is_recorded_in_its_workspace(cases, max_fix_iterations,
                                                     max_review_rounds):
    budget = PipelineBudget(max_fix_iterations, max_review_rounds)
    designs = [f"case{i}" for i in range(len(cases))]
    script = dict(zip(designs, cases))
    handles = []
    real_event = engine._event

    def event(events, *args, **kwargs):
        handles.append(events)
        real_event(events, *args, **kwargs)

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
                    mock.patch.object(engine, "_event", event):
                summary = run_suite(suite, gateway, toolchain, budget, out, workers=workers)
            assert not crashed.called, crashed.call_args
            assert threading.active_count() == threads_before
            assert all(h.closed for h in handles)
            for design in designs:
                check_case(design, out / design, summary.per_case[design],
                           summary.failure_reasons.get(design, ""))
