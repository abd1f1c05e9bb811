import dataclasses
import itertools
import json
import logging
import random
import re
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FIXTURES, REPORTS, SCRIPTED, VERILOG, EvaluatorDown, JitteredToolchain, RecordingBackend,
    read_events, read_status, scripted_gateway, scripted_toolchain, transcript_roles,
)

from rtlflow import bench, engine, optimizer
from rtlflow.bench import BenchCase, run_suite
from rtlflow.engine import (
    DesignSpec,
    PipelineBudget,
    Port,
    RtlArtifact,
    apply_fixes,
    extract_tags,
    extract_verilog,
    make_plan,
    review_rtl,
    run_pipeline,
    write_rtl,
)
from rtlflow.errors import BackendUnavailable, BadInput, UnparseableReply
from rtlflow.gateway import Gateway, ScriptedBackend
from rtlflow.metrics import parse_report
from rtlflow.optimizer import OptimizationGoal
from rtlflow.toolchain import (
    DiagnosticRecord, ScriptedToolchain, ToolInvocation, VerificationOutcome, classify,
)


def make_spec(tmp_path, name="toy"):
    tb = tmp_path / "tb.v"
    tb.write_text("module tb; endmodule\n")
    return DesignSpec(
        name=name,
        description="toy design",
        module_name=name,
        ports=[Port("clk", "in"), Port("q", "out", 4)],
        testbench_path=str(tb),
    )


def spec_named(name: str) -> DesignSpec:
    """The signal generator fixture's spec under another design name."""
    return dataclasses.replace(DesignSpec.from_json(FIXTURES / "signal_generator_spec.json"),
                               name=name)


def gateway_for(role, reply):
    """A gateway whose one scripted turn is `reply` from `role`."""
    return Gateway(RecordingBackend([(role, reply)]))


def sent_prompt(gateway) -> str:
    """The one message of the gateway's one request: the user prompt."""
    [[prompt]] = gateway.backend.requests
    assert prompt.role_tag == "user"
    return prompt.content


@pytest.fixture
def event_handles(monkeypatch):
    """The open `events.jsonl` of every `Gateway.event` call, in order."""
    handles = []
    real_event = Gateway.event

    def spy(gateway, *args, **kwargs):
        handles.append(gateway._events)
        real_event(gateway, *args, **kwargs)

    monkeypatch.setattr(Gateway, "event", spy)
    return handles


# --- spec / budget validation ---

def test_spec_rejects_duplicate_ports(tmp_path):
    tb = tmp_path / "tb.v"
    tb.write_text("x")
    with pytest.raises(ValueError):
        DesignSpec("d", "d", "d", [Port("a", "in"), Port("a", "out")], str(tb))


def test_budget_validation():
    with pytest.raises(ValueError, match="max_fix_iterations must be >= 1"):
        PipelineBudget(max_fix_iterations=0)
    with pytest.raises(ValueError, match="max_review_rounds must be >= 1"):
        PipelineBudget(max_review_rounds=0)


def test_spec_ignores_clocked_key(tmp_path, signal_generator_spec):
    # the fixture spec still carries the key; nothing reads it, so it is not kept
    assert "clocked" in json.loads((FIXTURES / "signal_generator_spec.json").read_text())
    gateway = scripted_gateway(SCRIPTED / "signal_generator", tmp_path)
    toolchain = scripted_toolchain(SCRIPTED / "signal_generator")
    run_pipeline(signal_generator_spec, PipelineBudget(), gateway, toolchain, tmp_path / "ws")
    spec_json = json.loads((tmp_path / "ws" / "spec.json").read_text())
    assert "clocked" not in spec_json
    assert spec_json["module_name"] == "signal_generator"


# --- plan parsing ---

def test_make_plan_four_steps(tmp_path):
    reply = "1. registers\n2. always block\n3. counting\n4. output"
    plan = make_plan(make_spec(tmp_path), gateway_for("Planner", reply))
    assert plan == ["registers", "always block", "counting", "output"]


def test_make_plan_unparseable(tmp_path):
    with pytest.raises(UnparseableReply, match="planner reply has no numbered steps"):
        make_plan(make_spec(tmp_path), gateway_for("Planner", "no steps needed"))


def test_plan_prompt_carries_module_and_ports(tmp_path):
    spec = make_spec(tmp_path, name="widget")
    gateway = gateway_for("Planner", "1. only step")
    make_plan(spec, gateway)
    prompt = sent_prompt(gateway)
    assert "widget" in prompt
    for port in spec.ports:
        assert port.name in prompt


def oracle_renumber(lines):
    """Independent renumbering oracle: keep numbered lines in order,
    renumber 1..N."""
    import re

    kept = []
    for line in lines:
        m = re.match(r"^\s*(?:[-*]\s*)?(\d+)[\.\):]\s+(.*\S)\s*$", line)
        if m:
            kept.append(m.group(2).strip())
    return list(enumerate(kept, 1))


def test_renumbering_matches_oracle(tmp_path):
    rng = random.Random(7)
    texts = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    for _ in range(10):
        n = rng.randint(1, 6)
        numbers = sorted(rng.sample(range(1, 20), n))
        lines = [f"{num}. {texts[i]}" for i, num in enumerate(numbers)]
        lines.insert(rng.randint(0, len(lines)), "free-text commentary")
        reply = "\n".join(lines)
        plan = make_plan(make_spec(tmp_path), gateway_for("Planner", reply))
        got = list(enumerate(plan, 1))
        assert got == oracle_renumber(lines)


# --- code extraction / tags ---

CODE_REPLY = """Here is the code:
```verilog
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


def four_step_plan():
    return [f"step {i}" for i in range(1, 5)]


def test_write_rtl_extracts_step_tags(tmp_path):
    artifact = write_rtl(four_step_plan(), make_spec(tmp_path), gateway_for("Programmer", CODE_REPLY))
    assert artifact.revision == 0
    assert set(artifact.step_tags) == {1, 2, 3, 4}
    assert artifact.notes == []


def test_write_rtl_no_code_block(tmp_path):
    with pytest.raises(UnparseableReply, match="reply contains no Verilog module"):
        write_rtl(four_step_plan(), make_spec(tmp_path), gateway_for("Programmer", "just prose"))


def test_write_rtl_missing_tags_recorded(tmp_path):
    truncated = CODE_REPLY.replace("// STEP 4: output\n        ", "")
    artifact = write_rtl(four_step_plan(), make_spec(tmp_path), gateway_for("Programmer", truncated))
    assert set(artifact.step_tags) == {1, 2, 3}
    assert any("MissingStepTags" in n for n in artifact.notes)


def test_extract_verilog_unfenced():
    code = extract_verilog("prose before\nmodule m; assign y = 1; endmodule\nafter")
    assert code.startswith("module m") and code.rstrip().endswith("endmodule")


ADD_MODULE = "module add(input a, input b, output y);\n  assign y = a + b;\nendmodule\n"


def test_extract_verilog_starts_at_a_declaration():
    # prose that names a module is not code, and neither is a fence that only
    # mentions one
    assert extract_verilog("This module adds two numbers.\n" + ADD_MODULE) == ADD_MODULE
    reply = "```\n// the adder module\n```\n\n```verilog\n" + ADD_MODULE + "```\n"
    assert extract_verilog(reply) == ADD_MODULE


TWO_MODULES = ("module inv(input a, output y);\n  assign y = ~a;\nendmodule\n"
               "module top(input a, output y);\n  inv u(.a(a), .y(y));\nendmodule\n")


@pytest.mark.parametrize("code, prose", [
    ("module m(input a, output y);\n  assign y = a;\nendmodule\n",
     "Each endmodule closes one module."),
    (TWO_MODULES, "Both end at an endmodule; the second endmodule closes top."),
    (TWO_MODULES, "module inv is the leaf."),
], ids=["one-module", "two-modules", "declaration-in-prose"])
def test_extract_verilog_ends_at_the_last_modules_endmodule(code, prose):
    # prose after the code that names the keyword is not code
    assert extract_verilog(code + prose) == code


_WORDS = ["this", "module", "adds", "the", "two", "numbers.", "a", "wire", "//", "(b)", ";"]
_prose = st.lists(
    st.tuples(st.sampled_from([w for w in _WORDS if w != "module"]),
              st.lists(st.sampled_from(_WORDS), max_size=6)).map(lambda t: " ".join([t[0], *t[1]])),
    max_size=4).map("\n".join)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(before=_prose, after=_prose, fenced=st.booleans(), comment_fence=_prose,
       name=st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True))
def test_extract_verilog_takes_the_one_module(before, after, fenced, comment_fence, name):
    # prose with no line-leading declaration around one module, fenced or not,
    # gives exactly that module
    module = ADD_MODULE.replace("module add", f"module {name}")
    code = f"```verilog\n{module}```" if fenced else module
    reply = f"```\n{comment_fence}\n```\n{before}\n{code}\n{after}"
    assert extract_verilog(reply) == module


def test_tag_indices():
    code = "\n".join([
        "module m;", "// STEP 1: a", "wire a;", "// STEP 2: b // STEP 3: c", "wire b;",
        "// step 4 : d", "// FIX 1: x", "endmodule",
    ])
    # only the first tag on a line counts; the kind is matched without case
    assert extract_tags(code, "STEP") == {1, 2, 4}
    assert extract_tags(code, "FIX") == {1}


# --- review ---

REVIEW_OK = "\n".join(f"STEP {i}: IMPLEMENTED - evidence {i}" for i in range(1, 5))


def test_review_complete():
    per_step = review_rtl(four_step_plan(), RtlArtifact(CODE_REPLY),
                          gateway_for("Reviewer", REVIEW_OK))
    assert per_step == {i: {"status": "Implemented", "evidence": f"evidence {i}"}
                        for i in range(1, 5)}


def test_review_missing_step():
    reply = REVIEW_OK.replace("STEP 3: IMPLEMENTED - evidence 3", "STEP 3: MISSING - no counter")
    per_step = review_rtl(four_step_plan(), RtlArtifact(CODE_REPLY), gateway_for("Reviewer", reply))
    assert per_step[3] == {"status": "Missing", "evidence": "no counter"}
    assert [i for i, r in per_step.items() if r["status"] == "Missing"] == [3]


def test_review_out_of_range_index():
    reply = REVIEW_OK + "\nSTEP 5: IMPLEMENTED - phantom"
    with pytest.raises(UnparseableReply, match="review cites step 5 outside the plan"):
        review_rtl(four_step_plan(), RtlArtifact(CODE_REPLY), gateway_for("Reviewer", reply))


def test_review_fuzz_out_of_range():
    rng = random.Random(3)
    plan = four_step_plan()
    for _ in range(20):
        indices = rng.sample(range(1, 30), 4)
        reply = "\n".join(f"STEP {i}: IMPLEMENTED - x" for i in indices)
        if set(indices) == {1, 2, 3, 4}:
            continue
        with pytest.raises(UnparseableReply, match=r"review cites step \d+ outside the plan"):
            review_rtl(plan, RtlArtifact(CODE_REPLY), gateway_for("Reviewer", reply))


def test_review_must_cover_every_step():
    reply = REVIEW_OK.replace("STEP 4: IMPLEMENTED - evidence 4", "")
    with pytest.raises(UnparseableReply,
                       match=re.escape("review covers steps [1, 2, 3], plan has [1, 2, 3, 4]")):
        review_rtl(four_step_plan(), RtlArtifact(CODE_REPLY), gateway_for("Reviewer", reply))


def test_review_must_name_each_step_once():
    # a later line for a step must not override an earlier one
    reply = "STEP 1: IMPLEMENTED - x\nSTEP 2: MISSING - y\nSTEP 2: IMPLEMENTED - z"
    with pytest.raises(UnparseableReply, match="^review names step 2 twice$"):
        review_rtl(["a", "b"], RtlArtifact(CODE_REPLY), gateway_for("Reviewer", reply))


def test_review_complete_flag_is_recomputed(tmp_path):
    # a reply claiming completeness in prose but marking a step MISSING
    reply = (
        "All steps are done, great work!\n"
        + REVIEW_OK.replace("STEP 1: IMPLEMENTED - evidence 1", "STEP 1: MISSING - nothing")
    )
    turns = [("Planner", "1. a\n2. b\n3. c\n4. d"), ("Programmer", CODE_REPLY),
             ("Reviewer", reply)]
    ws = tmp_path / "ws"
    run_pipeline(make_spec(tmp_path), PipelineBudget(max_review_rounds=1),
                 Gateway(ScriptedBackend(turns)), ScriptedToolchain([VerificationOutcome("Pass")]),
                 ws)
    [verdict] = [e for e in read_events(ws) if e["event"] == "verdict"]
    assert verdict["complete"] is False
    assert verdict["per_step"]["1"] == {"status": "Missing", "evidence": "nothing"}


# --- diagnosis / fixes ---

def failing_outcome():
    return VerificationOutcome("FunctionalFail", failing_checks=["ERROR: mismatch at vector 7"])


def test_diagnose_parses_fixes():
    fixes = engine._parse_diagnosis("1. fix the carry\n2. widen the register\n3. reset properly")
    assert fixes == ["fix the carry", "widen the register", "reset properly"]


def test_diagnose_unparseable_reply():
    with pytest.raises(UnparseableReply, match="evaluator reply has no numbered fixes"):
        engine._parse_diagnosis("The counter looks wrong; widen it.")


def test_diagnose_rejects_pass_outcome():
    with pytest.raises(ValueError):
        engine._evaluator_prompt(RtlArtifact("x"), VerificationOutcome("Pass"), "tb")


def test_diagnose_prompt_contains_log_and_testbench():
    prompt = engine._evaluator_prompt(
        RtlArtifact("module m; endmodule"), failing_outcome(), "TB_SENTINEL")
    assert "ERROR: mismatch at vector 7" in prompt
    assert "TB_SENTINEL" in prompt
    # the testbench leads, so prompts for one design share their start
    assert prompt.index("TB_SENTINEL") < prompt.index("Candidate code:") < prompt.index("Error log:")


def prompt_log(outcome: VerificationOutcome) -> list[str]:
    """The lines under `Error log:` in the Evaluator prompt for `outcome`."""
    prompt = engine._evaluator_prompt(RtlArtifact("module m; endmodule"), outcome, "tb")
    return prompt.split("Error log:\n")[1].split("\n\n")[0].splitlines()


def test_evaluator_prompt_trims_the_log():
    # warnings go when an error line is present and repeats go; the first
    # 20 lines stay, diagnostics before failing checks, and one line counts the rest
    warning = DiagnosticRecord("tb.v", 3, "Warning", "implicit wire", "tb.v:3: warning: implicit wire")
    errors = [DiagnosticRecord("top.v", k, "Error", "bad", f"top.v:{k}: error: bad")
              for k in range(1, 13)]
    checks = [f"ERROR: mismatch at vector {k}" for k in range(15)]
    outcome = VerificationOutcome("FunctionalFail",
                                  diagnostics=[warning, *errors[:6], warning, *errors],
                                  failing_checks=checks + checks[:3])
    recorded = outcome.to_dict()
    assert prompt_log(outcome) == (
        [e.raw for e in errors] + checks[:8] + ["(7 more error lines not shown)"])
    assert outcome.to_dict() == recorded  # its outcome record keeps every line


def test_evaluator_prompt_keeps_warnings_with_no_error_line():
    warnings = [DiagnosticRecord("top.v", k, "Warning", "w", f"top.v:{k}: warning: w")
                for k in (1, 2)]
    outcome = VerificationOutcome("SyntaxFail", diagnostics=warnings * 2)
    assert prompt_log(outcome) == [w.raw for w in warnings]
    assert prompt_log(VerificationOutcome("SyntaxFail")) == ["(no captured log lines)"]


def test_evaluator_prompt_caps_an_unclassified_compile_log():
    # no line of this stderr names a file:line, an error or a warning, so
    # classify keeps it whole as one diagnostic; the prompt still shows 20 lines
    stderr = "".join(f"syntax trouble near token {k}\n" for k in range(500))
    outcome = classify(ToolInvocation("Compile", ["iverilog"], ".", 1, "", stderr, 0.0), None)
    assert [d.raw for d in outcome.diagnostics] == [stderr]
    assert prompt_log(outcome) == (
        [f"syntax trouble near token {k}" for k in range(20)]
        + ["(480 more error lines not shown)"])


FIXED_REPLY = CODE_REPLY.replace(
    "// STEP 3: counting",
    "// STEP 3: counting\n        // FIX 1: carry\n        // FIX 2: width\n        // FIX 3: reset",
)


def test_apply_fixes_increments_revision():
    base = RtlArtifact("module toy; endmodule", step_tags={1}, revision=0)
    fixed = apply_fixes(base, [f"f{i}" for i in range(3)], gateway_for("Programmer", FIXED_REPLY))
    assert fixed.revision == 1
    assert extract_tags(fixed.verilog_text, "FIX") == {1, 2, 3}
    assert set(fixed.step_tags) == {1, 2, 3, 4}


def test_apply_fixes_notes_missing_fix_and_step_tags():
    base = RtlArtifact("module toy; endmodule", step_tags={1, 2, 3, 4}, revision=0)
    untagged = CODE_REPLY.replace("// STEP 4: output\n        ", "")
    fixed = apply_fixes(base, ["f1", "f2"], gateway_for("Programmer", untagged))
    assert fixed.notes == ["MissingStepTags: [4]", "MissingFixTags: [1, 2]"]


def test_apply_fixes_notes_tags_by_index_not_count():
    # as many FIX and STEP tags as asked for, but FIX 3 for FIX 2 and STEP 5 for STEP 4
    base = RtlArtifact("module toy; endmodule", step_tags={1, 2, 3, 4}, revision=0)
    swapped = FIXED_REPLY.replace("// FIX 2: width\n        ", "").replace("STEP 4:", "STEP 5:")
    fixed = apply_fixes(base, ["f1", "f2"], gateway_for("Programmer", swapped))
    assert (fixed.step_tags, extract_tags(fixed.verilog_text, "FIX")) == ({1, 2, 3, 5}, {1, 3})
    assert fixed.notes == ["MissingStepTags: [4]", "MissingFixTags: [2]"]


def test_artifact_from_reply_notes_only_the_tags_asked_for(caplog):
    assert engine.artifact_from_reply(CODE_REPLY.replace("STEP 4", "step"), 0).notes == []
    with caplog.at_level(logging.WARNING, logger="rtlflow.engine"):
        artifact = engine.artifact_from_reply(FIXED_REPLY, 2, steps=[1, 4, 6], fixes=5)
    assert artifact.notes == ["MissingStepTags: [6]", "MissingFixTags: [4, 5]"]
    assert [r.getMessage() for r in caplog.records] == artifact.notes


# --- full pipeline ---

def test_pipeline_pass_on_second_iteration(tmp_path, signal_generator_spec):
    gateway = scripted_gateway(SCRIPTED / "signal_generator", tmp_path)
    toolchain = scripted_toolchain(SCRIPTED / "signal_generator")
    revisions, final = run_pipeline(
        signal_generator_spec, PipelineBudget(), gateway, toolchain, tmp_path / "ws"
    )
    assert final == "Pass"
    assert len(revisions) == 2
    diagnoses = [e for e in read_events(tmp_path / "ws") if e["event"] == "diagnosis"]
    assert len(diagnoses) == 1 and len(diagnoses[0]["fixes"]) == 3
    rev1 = (tmp_path / "ws" / "rev_1.v").read_text()
    for k in (1, 2, 3):
        assert f"// FIX {k}:" in rev1
    assert [r.rtl.revision for r in revisions] == [0, 1]


def test_pipeline_budget_exhausted(tmp_path, signal_generator_spec):
    gateway = scripted_gateway(SCRIPTED / "signal_generator_fail", tmp_path)
    toolchain = scripted_toolchain(SCRIPTED / "signal_generator_fail")
    revisions, final = run_pipeline(
        signal_generator_spec, PipelineBudget(max_fix_iterations=3), gateway, toolchain,
        tmp_path / "ws",
    )
    assert final == "BudgetExhausted"
    assert len(revisions) == 4
    assert [r.rtl.revision for r in revisions] == [0, 1, 2, 3]


def test_pipeline_rereviews_after_incomplete_round(tmp_path):
    spec = make_spec(tmp_path)
    incomplete = "\n".join(
        ["STEP 1: IMPLEMENTED - ok", "STEP 2: IMPLEMENTED - ok",
         "STEP 3: MISSING - counter absent", "STEP 4: IMPLEMENTED - ok"]
    )
    turns = [
        ("Planner", "1. a\n2. b\n3. c\n4. d"),
        ("Programmer", CODE_REPLY),
        ("Reviewer", incomplete),
        ("Programmer", CODE_REPLY),  # re-program after the missing report
        ("Reviewer", REVIEW_OK),
    ]
    gateway = Gateway(ScriptedBackend(turns))
    toolchain = scripted_toolchain(SCRIPTED / "signal_generator")
    toolchain.outcomes = [VerificationOutcome("Pass")]
    revisions, final = run_pipeline(spec, PipelineBudget(), gateway, toolchain, tmp_path / "ws")
    assert final == "Pass"
    assert len(revisions) == 1
    # exactly one re-program happened before the single verification
    assert toolchain.cursor == 1
    # the rewrite keeps revision 0, and each round's verdict is kept
    verdicts = [e for e in read_events(tmp_path / "ws") if e["event"] == "verdict"]
    assert [(v["revision"], v["round"], v["complete"]) for v in verdicts] == [
        (0, 1, False), (0, 2, True)]
    assert [k for k, r in verdicts[0]["per_step"].items() if r["status"] == "Missing"] == ["3"]


def test_pipeline_proceeds_when_review_never_converges(tmp_path, caplog):
    turns = [
        ("Planner", "1. a\n2. b\n3. c\n4. d"),
        ("Programmer", CODE_REPLY),
        ("Reviewer", REVIEW_MISSING_4),
        ("Programmer", CODE_REPLY),
        ("Reviewer", REVIEW_MISSING_4),  # the last round: no rewrite follows
    ]
    ws = tmp_path / "ws"
    revisions, final = run_pipeline(make_spec(tmp_path), PipelineBudget(max_review_rounds=2),
                                    Gateway(ScriptedBackend(turns)),
                                    ScriptedToolchain([VerificationOutcome("Pass")]), ws)
    assert final == "Pass" and len(revisions) == 1
    assert "review never converged after 2 rounds; proceeding" in caplog.text
    assert [(e["event"], e.get("round"), e.get("complete")) for e in read_events(ws)] == [
        ("plan", None, None), ("verdict", 1, False), ("verdict", 2, False),
        ("outcome", None, None)]


def test_pipeline_audit_count_matches_transcript(tmp_path, signal_generator_spec):
    gateway = scripted_gateway(SCRIPTED / "signal_generator", tmp_path)
    toolchain = scripted_toolchain(SCRIPTED / "signal_generator")
    run_pipeline(signal_generator_spec, PipelineBudget(), gateway, toolchain, tmp_path / "ws")
    log_lines = (tmp_path / "transcript.jsonl").read_text().splitlines()
    # one prompt line and one reply line per backend call
    assert gateway.backend.cursor > 0
    assert len(log_lines) == 2 * gateway.backend.cursor


def test_pipeline_workspace_artifacts(tmp_path, signal_generator_spec):
    gateway = scripted_gateway(SCRIPTED / "signal_generator", tmp_path)
    toolchain = scripted_toolchain(SCRIPTED / "signal_generator")
    ws = tmp_path / "ws"
    run_pipeline(signal_generator_spec, PipelineBudget(), gateway, toolchain, ws)
    for name in ("spec.json", "rev_0.v", "rev_1.v", "status.json"):
        assert (ws / name).exists(), name
    events = read_events(ws)
    assert [(e["event"], e["revision"]) for e in events] == [
        ("plan", 0), ("verdict", 0), ("outcome", 0), ("diagnosis", 0),
        ("verdict", 1), ("outcome", 1),
    ]
    assert len(events[0]["steps"]) == 4
    # every reply carries its tags, so no revision has notes
    assert not [e for e in events if e["event"] == "notes"]


class DirToolchain(ScriptedToolchain):
    """ScriptedToolchain that leaves a `verify_N/` directory, as a simulator does."""

    def verify(self, rtl_path, tb_path, workspace):
        workspace.mkdir(exist_ok=True)
        (workspace / "sim.log").write_text("")
        return super().verify(rtl_path, tb_path, workspace)


def run_fixture(tmp_path, fixture, ws, budget=PipelineBudget()):
    script = SCRIPTED / fixture
    toolchain = DirToolchain(scripted_toolchain(script).outcomes)
    spec = DesignSpec.from_json(FIXTURES / "signal_generator_spec.json")
    return run_pipeline(spec, budget, scripted_gateway(script, tmp_path), toolchain, ws)


def test_rerun_removes_the_earlier_runs_revisions(tmp_path):
    # a BudgetExhausted run leaves rev_0..3; a passing rerun makes rev_0..1 only
    ws = tmp_path / "ws"
    run_fixture(tmp_path, "signal_generator_fail", ws, PipelineBudget(max_fix_iterations=3))
    assert (ws / "rev_3.v").is_file() and (ws / "verify_3" / "sim.log").is_file()
    (ws / "rev_final.v").write_text("kept")  # not a revision: N is not an integer
    (ws / "verify_notes").mkdir()
    revisions, final = run_fixture(tmp_path, "signal_generator", ws)
    assert final == "Pass"
    status = json.loads((ws / "status.json").read_text())
    assert status["revisions"] == [0, 1]
    assert sorted(p.name for p in ws.glob("rev_*")) == ["rev_0.v", "rev_1.v", "rev_final.v"]
    assert sorted(p.name for p in ws.glob("verify_*")) == ["verify_0", "verify_1",
                                                           "verify_notes"]


def test_run_failing_before_its_first_call_leaves_no_old_events(tmp_path):
    # a rerun whose testbench is not UTF-8 ends before the Planner is asked
    ws = tmp_path / "ws"
    run_fixture(tmp_path, "signal_generator", ws)
    assert len(read_events(ws)) == 6
    bad_tb = tmp_path / "tb.v"
    bad_tb.write_bytes(b"\xff\xfe module tb;")
    spec = dataclasses.replace(DesignSpec.from_json(FIXTURES / "signal_generator_spec.json"),
                               testbench_path=str(bad_tb))
    gateway = Gateway(ScriptedBackend([]))
    with pytest.raises(BadInput, match="tb.v: 'utf-8' codec can't decode"):
        run_pipeline(spec, PipelineBudget(), gateway, ScriptedToolchain([]), ws)
    assert read_events(ws) == []
    assert json.loads((ws / "status.json").read_text())["final_status"] == "Error"
    assert json.loads((ws / "spec.json").read_text())["testbench_path"] == str(bad_tb)
    assert not list(ws.glob("rev_*")) and not list(ws.glob("verify_*"))


def notes_events(ws) -> list[tuple[int, list[str]]]:
    return [(e["revision"], e["notes"]) for e in read_events(ws) if e["event"] == "notes"]


def test_pipeline_persists_missing_step_note(tmp_path):
    truncated = CODE_REPLY.replace("// STEP 4: output\n        ", "")
    turns = [
        ("Planner", "1. a\n2. b\n3. c\n4. d"),
        ("Programmer", truncated),
        ("Reviewer", REVIEW_OK),
    ]
    toolchain = ScriptedToolchain([VerificationOutcome("Pass")])
    ws = tmp_path / "ws"
    run_pipeline(make_spec(tmp_path), PipelineBudget(), Gateway(ScriptedBackend(turns)),
                 toolchain, ws)
    assert notes_events(ws) == [(0, ["MissingStepTags: [4]"])]


def test_review_rewrite_keeps_missing_step_note(tmp_path):
    # the re-programmed artifact is revision 1; its own missing tag is noted
    incomplete = REVIEW_OK.replace("STEP 4: IMPLEMENTED - evidence 4", "STEP 4: MISSING - none")
    turns = [
        ("Planner", "1. a\n2. b\n3. c\n4. d"),
        ("Programmer", CODE_REPLY),
        ("Reviewer", incomplete),
        ("Programmer", CODE_REPLY.replace("// STEP 2: always block\n    ", "")),
        ("Reviewer", REVIEW_OK),
    ]
    # the rewrite changes the code, so the first artifact's verify is superseded
    toolchain = ScriptedToolchain([VerificationOutcome("Pass"), VerificationOutcome("Pass")])
    ws = tmp_path / "ws"
    revisions, _ = run_pipeline(make_spec(tmp_path), PipelineBudget(),
                                Gateway(ScriptedBackend(turns)), toolchain, ws)
    assert revisions[0].rtl.notes == ["MissingStepTags: [2]"]
    assert notes_events(ws) == [(1, ["MissingStepTags: [2]"])]


def test_pipeline_crash_leaves_events_closed(tmp_path, event_handles):
    # an unparseable diagnosis ends the run after revision 0's outcome event
    turns = [
        ("Planner", "1. a\n2. b\n3. c\n4. d"),
        ("Programmer", CODE_REPLY),
        ("Reviewer", REVIEW_OK),
        ("Evaluator", "The counter looks wrong; widen it."),
    ]
    ws = tmp_path / "ws"
    with pytest.raises(UnparseableReply, match="evaluator reply has no numbered fixes"):
        run_pipeline(make_spec(tmp_path), PipelineBudget(), Gateway(ScriptedBackend(turns)),
                     ScriptedToolchain([failing_outcome()]), ws)
    assert len({id(h) for h in event_handles}) == 1 and event_handles[0].closed
    last = read_events(ws)[-1]
    assert (last["event"], last["revision"], last["kind"]) == ("outcome", 0, "FunctionalFail")
    # the run's own workspace records how it ended
    assert read_status(ws) == {
        "design": "toy", "final_status": "Error", "error_type": "UnparseableReply",
        "error": "evaluator reply has no numbered fixes"}


@pytest.fixture
def opened(monkeypatch):
    """Every handle `Path.open` returns during the test, `write_text`'s too."""
    handles = []
    real_open = Path.open

    def recording_open(self, *args, **kwargs):
        handles.append(real_open(self, *args, **kwargs))
        return handles[-1]

    monkeypatch.setattr(Path, "open", recording_open)
    return handles


def test_run_whose_events_cannot_be_opened_never_starts(tmp_path, opened):
    ws = tmp_path / "ws"
    (ws / "events.jsonl").mkdir(parents=True)
    gateway = Gateway(ScriptedBackend([]), transcript_path=ws / "transcript.jsonl")
    with pytest.raises(IsADirectoryError):
        run_pipeline(make_spec(tmp_path), PipelineBudget(), gateway, ScriptedToolchain([]), ws)
    assert [p.name for p in ws.iterdir()] == ["events.jsonl"]  # no record, status or transcript
    assert all(h.closed for h in opened)


def test_run_whose_transcript_cannot_be_opened_ends(tmp_path, opened):
    ws = tmp_path / "ws"
    (ws / "transcript.jsonl").mkdir(parents=True)
    gateway = Gateway(ScriptedBackend([]), transcript_path=ws / "transcript.jsonl")
    with pytest.raises(IsADirectoryError) as raised:
        run_pipeline(make_spec(tmp_path), PipelineBudget(), gateway, ScriptedToolchain([]), ws)
    assert read_events(ws) == []  # but the `end` record, equal to the status
    assert read_status(ws) == {"design": "toy", "final_status": "Error",
                               "error_type": "IsADirectoryError", "error": str(raised.value)}
    assert all(h.closed for h in opened)


# --- verify during review ---

MEET_S = 5.0  # how long each side waits for the other before the test fails


class MeetingToolchain(ScriptedToolchain):
    """Each verify waits for a Reviewer call to start, then lets it reply;
    `met` records whether each verify saw the Reviewer in its call."""

    def __init__(self, outcomes):
        super().__init__(outcomes)
        self.reviewing = threading.Event()
        self.verified = threading.Event()
        self.met: list[bool] = []

    def verify(self, rtl_path, tb_path, workspace):
        self.met.append(self.reviewing.wait(MEET_S))
        try:
            return super().verify(rtl_path, tb_path, workspace)
        finally:
            self.verified.set()


class MeetingBackend(ScriptedBackend):
    """Each Reviewer call waits for a verify to end during it; `met` records
    whether one did. A verify that waits for the verdict makes both time out."""

    def __init__(self, turns, toolchain: MeetingToolchain):
        super().__init__(turns)
        self.toolchain = toolchain
        self.met: list[bool] = []

    def complete(self, role_name, messages):
        if role_name == "Reviewer":
            self.toolchain.reviewing.set()
            self.met.append(self.toolchain.verified.wait(MEET_S))
            self.toolchain.verified.clear()
            self.toolchain.reviewing.clear()
        return super().complete(role_name, messages)


def test_verify_runs_while_the_reviewer_reads(tmp_path, signal_generator_spec):
    toolchain = MeetingToolchain(scripted_toolchain(SCRIPTED / "signal_generator").outcomes)
    turns = ScriptedBackend.from_file(SCRIPTED / "signal_generator" / "turns.json").turns
    backend = MeetingBackend(turns, toolchain)
    revisions, final = run_pipeline(signal_generator_spec, PipelineBudget(), Gateway(backend),
                                    toolchain, tmp_path / "ws")
    assert final == "Pass" and len(revisions) == 2
    assert backend.met == [True, True] and toolchain.met == [True, True]


REVIEW_MISSING_4 = REVIEW_OK.replace("STEP 4: IMPLEMENTED - evidence 4", "STEP 4: MISSING - none")
CHANGED_REPLY = CODE_REPLY.replace("count <= count + 1;", "count <= count + 4'd1;")


@pytest.mark.parametrize("rewrite, outcomes, expected", [
    # a byte-identical rewrite keeps revision 0 and the verify already run on it
    (CODE_REPLY, [VerificationOutcome("Pass")], [(0, "Pass", None)]),
    # a rewrite that changes the code is revision 1 and gives revision 0's
    # verify up; that verify failed, so its Evaluator call is made and
    # transcribed, but no diagnosis is recorded, as no fix follows it
    (CHANGED_REPLY, [failing_outcome(), VerificationOutcome("Pass")],
     [(0, "FunctionalFail", True), (1, "Pass", None)]),
], ids=["identical", "changed"])
def test_review_rewrite_keeps_or_supersedes_verify(tmp_path, rewrite, outcomes, expected):
    assert CHANGED_REPLY != CODE_REPLY
    changed = int(rewrite != CODE_REPLY)
    turns = [
        ("Planner", "1. a\n2. b\n3. c\n4. d"),
        ("Programmer", CODE_REPLY),
        ("Reviewer", REVIEW_MISSING_4),
        ("Programmer", rewrite),
        *[("Evaluator", "1. widen the counter")] * changed,
        ("Reviewer", REVIEW_OK),
    ]
    toolchain = ScriptedToolchain(outcomes)
    gateway = Gateway(ScriptedBackend(turns))
    ws = tmp_path / "ws"
    revisions, final = run_pipeline(make_spec(tmp_path), PipelineBudget(), gateway, toolchain, ws)
    assert final == "Pass" and len(revisions) == 1
    assert toolchain.cursor == len(outcomes) and gateway.backend.cursor == len(turns)
    events = read_events(ws)
    assert [(e["revision"], e["kind"], e.get("superseded"))
            for e in events if e["event"] == "outcome"] == expected
    # the superseded outcome follows the verdict that asked for the rewrite,
    # and the next round's verdict is about the rewrite
    assert [(e["event"], e["revision"]) for e in events] == (
        [("plan", 0), ("verdict", 0)] + [("outcome", 0)] * changed
        + [("verdict", changed), ("outcome", changed)])
    # each verify has its own source file
    assert (ws / "rev_0.v").read_text() == extract_verilog(CODE_REPLY)
    assert (ws / f"rev_{changed}.v").read_text() == extract_verilog(rewrite)
    assert len(list(ws.glob("rev_*.v"))) == len(outcomes)
    assert revisions[0].rtl.verilog_text == extract_verilog(rewrite)
    assert read_status(ws)["revisions"] == [changed]


class SlowFirstVerify(ScriptedToolchain):
    """The first verify to start takes 50 ms; every later one returns at once."""

    def __init__(self, outcomes):
        super().__init__(outcomes)
        self.started = itertools.count()

    def verify(self, rtl_path, tb_path, workspace):
        if next(self.started) == 0:
            time.sleep(0.05)
        return super().verify(rtl_path, tb_path, workspace)


def test_evaluator_turns_follow_verify_start_order(tmp_path):
    # the draft's verify fails slowly and is given up for a rewrite whose
    # verify fails fast; the draft's Evaluator call still takes the first
    # Evaluator turn, so the fixes acted on, and recorded, are the rewrite's own
    turns = [
        ("Planner", "1. a\n2. b\n3. c\n4. d"),
        ("Programmer", CODE_REPLY),
        ("Reviewer", REVIEW_MISSING_4),
        ("Programmer", CHANGED_REPLY),
        ("Evaluator", "1. fix for the draft"),
        ("Reviewer", REVIEW_OK),
        ("Evaluator", "1. fix for the rewrite"),
        ("Programmer", FIXED_REPLY),
        ("Reviewer", REVIEW_OK),
    ]
    toolchain = SlowFirstVerify([failing_outcome(), failing_outcome(), VerificationOutcome("Pass")])
    ws = tmp_path / "ws"
    revisions, final = run_pipeline(make_spec(tmp_path), PipelineBudget(),
                                    Gateway(ScriptedBackend(turns)), toolchain, ws)
    assert final == "Pass" and [r.rtl.revision for r in revisions] == [1, 2]
    assert [(e["revision"], e["fixes"])
            for e in read_events(ws) if e["event"] == "diagnosis"] == [
        (1, [{"description": "fix for the rewrite"}])]


def test_fix_budget_counts_kept_revisions(tmp_path):
    # revision 0 is given up for its rewrite, revision 1; with a budget of
    # one fix, revision 1 is still diagnosed and fixed as revision 2
    turns = [
        ("Planner", "1. a\n2. b\n3. c\n4. d"),
        ("Programmer", CODE_REPLY),
        ("Reviewer", REVIEW_MISSING_4),
        ("Programmer", CHANGED_REPLY),
        ("Reviewer", REVIEW_OK),
        ("Evaluator", "1. widen the counter"),
        ("Programmer", FIXED_REPLY),
        ("Reviewer", REVIEW_OK),
    ]
    backend = ScriptedBackend(turns)
    toolchain = ScriptedToolchain([VerificationOutcome("Pass"), failing_outcome(),
                                   failing_outcome()])
    ws = tmp_path / "ws"
    revisions, final = run_pipeline(make_spec(tmp_path), PipelineBudget(max_fix_iterations=1),
                                    Gateway(backend), toolchain, ws)
    assert final == "BudgetExhausted" and [r.rtl.revision for r in revisions] == [1, 2]
    assert backend.cursor == len(turns) and toolchain.cursor == 3
    assert [e["revision"] for e in read_events(ws) if e["event"] == "diagnosis"] == [1]
    assert read_status(ws) == {"design": "toy", "final_status": "BudgetExhausted",
                               "iterations_used": 2, "revisions": [1, 2]}


def test_toolchain_outage_during_review_is_infra_error(tmp_path):
    toolchain = MeetingToolchain([])  # out of outcomes: raises ToolchainUnavailable
    backend = MeetingBackend([
        ("Planner", "1. a\n2. b\n3. c\n4. d"),
        ("Programmer", CODE_REPLY),
        ("Reviewer", REVIEW_OK),
    ], toolchain)
    summary = run_suite([BenchCase(spec=make_spec(tmp_path))], lambda design: Gateway(backend),
                        lambda design: toolchain, PipelineBudget(), tmp_path / "out")
    assert backend.met == [True] and toolchain.met == [True]
    assert summary.per_case == {"toy": "InfraError"}
    assert summary.failure_reasons == {
        "toy": "ToolchainUnavailable: scripted toolchain out of outcomes"}
    assert [e["event"] for e in read_events(tmp_path / "out" / "toy")] == ["plan", "verdict"]


class HeldToolchain(ScriptedToolchain):
    """Each verify takes half a second; `done` is set when one ends."""

    def __init__(self, outcomes):
        super().__init__(outcomes)
        self.done = threading.Event()

    def verify(self, rtl_path, tb_path, workspace):
        time.sleep(0.5)
        outcome = super().verify(rtl_path, tb_path, workspace)
        self.done.set()
        return outcome


def test_unparseable_review_joins_the_verify_in_flight(tmp_path, event_handles):
    toolchain = HeldToolchain([VerificationOutcome("Pass")])
    in_flight = []

    class Backend(ScriptedBackend):
        def complete(self, role_name, messages):
            if role_name == "Reviewer":
                in_flight.append(not toolchain.done.is_set())
            return super().complete(role_name, messages)

    turns = [
        ("Planner", "1. a\n2. b\n3. c\n4. d"),
        ("Programmer", CODE_REPLY),
        ("Reviewer", "STEP 9: IMPLEMENTED - out of range"),
    ]
    with pytest.raises(UnparseableReply, match="review cites step 9 outside the plan"):
        run_pipeline(make_spec(tmp_path), PipelineBudget(), Gateway(Backend(turns)),
                     toolchain, tmp_path / "ws")
    assert in_flight == [True]
    assert toolchain.done.is_set()
    assert len({id(h) for h in event_handles}) == 1 and event_handles[0].closed


# --- the Evaluator during review ---

class OverlapBackend(ScriptedBackend):
    """The first `overlaps` Reviewer calls each wait for an Evaluator call to
    start during them, and each Evaluator call waits for a Reviewer call to
    be in flight; `met` records whether each side saw the other. An
    Evaluator call that waits for the verdict makes both time out."""

    def __init__(self, turns, overlaps: int):
        super().__init__(turns)
        self.overlaps = overlaps
        self.reviewing = threading.Event()
        self.evaluating = threading.Event()
        self.met: list[tuple[str, bool]] = []

    def complete(self, role_name, messages):
        if role_name == "Reviewer" and self.overlaps:
            self.overlaps -= 1
            self.reviewing.set()
            self.met.append((role_name, self.evaluating.wait(MEET_S)))
            self.evaluating.clear()
            self.reviewing.clear()
        elif role_name == "Evaluator":
            self.met.append((role_name, self.reviewing.wait(MEET_S)))
            self.evaluating.set()
        return super().complete(role_name, messages)


def test_evaluator_runs_while_the_reviewer_reads(tmp_path, signal_generator_spec):
    # revision 0 fails, so its Evaluator call overlaps its Reviewer call
    turns = ScriptedBackend.from_file(SCRIPTED / "signal_generator" / "turns.json").turns
    backend = OverlapBackend(turns, overlaps=1)
    gateway = Gateway(backend, transcript_path=tmp_path / "transcript.jsonl")
    revisions, final = run_pipeline(signal_generator_spec, PipelineBudget(), gateway,
                                    scripted_toolchain(SCRIPTED / "signal_generator"),
                                    tmp_path / "ws")
    assert final == "Pass" and len(revisions) == 2
    assert sorted(backend.met) == [("Evaluator", True), ("Reviewer", True)]
    # the calling thread records the exchange where the sequential loop did
    assert transcript_roles(tmp_path / "transcript.jsonl") == [role for role, _ in turns]
    assert [e["event"] for e in read_events(tmp_path / "ws")] == [
        "plan", "verdict", "outcome", "diagnosis", "verdict", "outcome"]


# the review's rounds and the Programmer's rewrites, and the exchanges each leaves
REVIEWS = {
    "accepts": ([("Reviewer", REVIEW_OK)], ["Reviewer"]),
    "identical_rewrite": (
        [("Reviewer", REVIEW_MISSING_4), ("Programmer", CODE_REPLY), ("Reviewer", REVIEW_OK)],
        ["Reviewer", "Programmer", "Reviewer"]),
}
EVALUATOR_FAULTS = {
    "unavailable": (EvaluatorDown, [], "InfraError",
                    "BackendUnavailable: backend failed after 4 attempt(s): 503"),
    "unparseable": (ScriptedBackend, ["Evaluator"], "Fail",
                    "UnparseableReply: evaluator reply has no numbered fixes"),
}


@pytest.mark.parametrize("fault", EVALUATOR_FAULTS)
@pytest.mark.parametrize("review", REVIEWS)
def test_evaluator_fault_surfaces_after_the_outcome(tmp_path, event_handles, review, fault):
    # the fault is raised on the calling thread where the sequential loop
    # raised it, with the same case status, events and transcript
    review_turns, review_roles = REVIEWS[review]
    backend_type, evaluator_roles, status, reason = EVALUATOR_FAULTS[fault]
    turns = [("Planner", "1. a\n2. b\n3. c\n4. d"), ("Programmer", CODE_REPLY),
             *review_turns, ("Evaluator", "The counter looks wrong; widen it.")]
    transcript = tmp_path / "transcript.jsonl"
    summary = run_suite(
        [BenchCase(spec=make_spec(tmp_path))],
        lambda design: Gateway(backend_type(turns), transcript_path=transcript),
        lambda design: ScriptedToolchain([failing_outcome()]),
        PipelineBudget(), tmp_path / "out")
    assert summary.per_case == {"toy": status}
    assert summary.failure_reasons == {"toy": reason}
    assert len({id(h) for h in event_handles}) == 1 and event_handles[0].closed
    events = read_events(tmp_path / "out" / "toy")
    rounds = len([role for role in review_roles if role == "Reviewer"])
    assert [e["event"] for e in events] == ["plan"] + ["verdict"] * rounds + ["outcome"]
    assert (events[-1]["kind"], events[-1].get("superseded")) == ("FunctionalFail", None)
    assert transcript_roles(transcript) == (
        ["Planner", "Programmer"] + review_roles + evaluator_roles)


@pytest.mark.parametrize("backend_type, reason", [
    (ScriptedBackend, "UnparseableReply('evaluator reply has no numbered fixes')"),
    (EvaluatorDown, "BackendUnavailable('backend failed after 4 attempt(s): 503')"),
], ids=["unparseable", "unavailable"])
def test_superseded_evaluator_fault(tmp_path, caplog, backend_type, reason):
    # no fix follows the given-up verify, so its Evaluator's failure is
    # logged, neither recorded nor raised, and the run goes on
    turns = [("Planner", "1. a\n2. b\n3. c\n4. d"), ("Programmer", CODE_REPLY),
             ("Reviewer", REVIEW_MISSING_4), ("Programmer", CHANGED_REPLY),
             ("Evaluator", "The counter looks wrong; widen it."), ("Reviewer", REVIEW_OK)]
    summary = run_suite(
        [BenchCase(spec=make_spec(tmp_path))], lambda design: Gateway(backend_type(turns)),
        lambda design: ScriptedToolchain([failing_outcome(), VerificationOutcome("Pass")]),
        PipelineBudget(), tmp_path / "out")
    assert summary.per_case == {"toy": "Pass"}
    events = read_events(tmp_path / "out" / "toy")
    assert [(e["event"], e["revision"], e.get("superseded")) for e in events] == [
        ("plan", 0, None), ("verdict", 0, None), ("outcome", 0, True),
        ("verdict", 1, None), ("outcome", 1, None)]
    assert f"revision 0 was given up; its Evaluator failed: {reason}" in caplog.text


# --- retiring a verify in flight ---

class ReviewerDown(RecordingBackend):
    """Every Reviewer call fails as an unreachable backend does, and is not
    counted among the requests that got a reply."""

    def complete(self, role_name, messages):
        if role_name == "Reviewer":
            raise BackendUnavailable("backend failed after 4 attempt(s): 503")
        return super().complete(role_name, messages)


OPENING = [("Planner", "1. a\n2. b\n3. c\n4. d"), ("Programmer", CODE_REPLY)]
# the review's turns, the backend, the events the review leaves, the
# exchanges it leaves, and the case's status and reason, as at the parent
REVIEW_FAULTS = {
    "out-of-range": (
        [("Reviewer", "STEP 9: IMPLEMENTED - out of range")], RecordingBackend, [],
        ["Reviewer"], "Fail", "UnparseableReply: review cites step 9 outside the plan"),
    "reviewer-unavailable": (
        [("Reviewer", REVIEW_OK)], ReviewerDown, [], [],
        "InfraError", "BackendUnavailable: backend failed after 4 attempt(s): 503"),
    "rewrite-without-module": (
        [("Reviewer", REVIEW_MISSING_4), ("Programmer", "No code, sorry.")], RecordingBackend,
        ["verdict"], ["Reviewer", "Programmer"],
        "Fail", "UnparseableReply: reply contains no Verilog module"),
}


@pytest.mark.parametrize("fault", REVIEW_FAULTS)
def test_review_fault_retires_the_verify_in_flight(tmp_path, event_handles, fault):
    # the Evaluator call made during the review is recorded, not dropped
    review_turns, backend_type, review_events, review_roles, status, reason = (
        REVIEW_FAULTS[fault])
    backend = backend_type([*OPENING, *review_turns, ("Evaluator", "1. widen the counter")])
    transcript = tmp_path / "transcript.jsonl"
    summary = run_suite(
        [BenchCase(spec=make_spec(tmp_path))],
        lambda design: Gateway(backend, transcript_path=transcript),
        lambda design: ScriptedToolchain([failing_outcome()]),
        PipelineBudget(), tmp_path / "out")
    assert summary.per_case == {"toy": status}
    assert summary.failure_reasons == {"toy": reason}
    assert len({id(h) for h in event_handles}) == 1 and event_handles[0].closed
    # every reply the backend gave is in the transcript, the Evaluator's last
    roles = transcript_roles(transcript)
    assert roles == ["Planner", "Programmer", *review_roles, "Evaluator"]
    assert len(backend.requests) == len(roles)
    # but no fix follows the given-up verify, so no diagnosis is recorded
    events = read_events(tmp_path / "out" / "toy")
    assert [e["event"] for e in events] == ["plan", *review_events, "outcome"]
    assert (events[-1]["revision"], events[-1]["kind"], events[-1]["superseded"]) == (
        0, "FunctionalFail", True)


# a verify that raises, or an Evaluator call that does, and the events it leaves
HELPER_FAULTS = {
    "verify": (ScriptedBackend, [], ["plan"]),
    "evaluator": (EvaluatorDown, [failing_outcome()], ["plan", "outcome"]),
}


@pytest.mark.parametrize("fault", HELPER_FAULTS)
def test_helper_fault_never_replaces_the_review_fault(tmp_path, event_handles, fault):
    backend_type, outcomes, expected = HELPER_FAULTS[fault]
    turns = [*OPENING, ("Reviewer", "STEP 9: IMPLEMENTED - out of range"),
             ("Evaluator", "1. widen the counter")]
    with pytest.raises(UnparseableReply, match="review cites step 9 outside the plan"):
        run_pipeline(make_spec(tmp_path), PipelineBudget(), Gateway(backend_type(turns)),
                     ScriptedToolchain(outcomes), tmp_path / "ws")
    assert len({id(h) for h in event_handles}) == 1 and event_handles[0].closed
    assert [e["event"] for e in read_events(tmp_path / "ws")] == expected


def test_a_verify_is_retired_once(tmp_path, event_handles, monkeypatch):
    # the rewrite's `rev_1.v` cannot be written after the first verify is
    # retired; the failure does not retire that verify a second time
    real_write_text = engine.Path.write_text

    def write_text(path, *args, **kwargs):
        if path.name == "rev_1.v":
            raise OSError(28, "No space left on device")
        return real_write_text(path, *args, **kwargs)

    monkeypatch.setattr(engine.Path, "write_text", write_text)
    turns = [*OPENING, ("Reviewer", REVIEW_MISSING_4), ("Programmer", CHANGED_REPLY),
             ("Evaluator", "1. widen the counter"), ("Reviewer", REVIEW_OK)]
    with pytest.raises(OSError, match="No space left"):
        run_pipeline(make_spec(tmp_path), PipelineBudget(), Gateway(ScriptedBackend(turns)),
                     ScriptedToolchain([failing_outcome()]), tmp_path / "ws")
    assert len({id(h) for h in event_handles}) == 1 and event_handles[0].closed
    events = read_events(tmp_path / "ws")
    assert [(e["event"], e.get("superseded")) for e in events] == [
        ("plan", None), ("verdict", None), ("outcome", True)]


ADDER_TB = VERILOG / "adder_16bit_tb.v"
ADDER_REPORT = parse_report((REPORTS / "adder_16bit_base.rpt").read_text())
CATALOG = optimizer.load_catalog()
CLA_REPLY = "```verilog\n" + (VERILOG / "adder_16bit_cla.v").read_text() + "```"
FIXED_CLA_REPLY = CLA_REPLY.replace("```verilog\n", "```verilog\n// FIX 1: carry\n")
# optimize runs: the replies, and the outcomes of their verifies
OPTIMIZE_RUNS = {
    "opt_pass": ([("Optimizer", CLA_REPLY)], [VerificationOutcome("Pass")]),
    "opt_fix": ([("Optimizer", CLA_REPLY), ("Evaluator", "1. carry"),
                 ("Programmer", FIXED_CLA_REPLY)],
                [failing_outcome(), VerificationOutcome("Pass")]),
}


def test_only_the_pipeline_thread_writes_and_runs_repeat(tmp_path, monkeypatch):
    # verify latency varies between repeats; what a run writes must not
    pipeline_thread = threading.local()
    off_thread: list[str] = []
    real_write, real_event = Gateway.write, Gateway.event

    def on_pipeline_thread(run):
        def entered(*args, **kwargs):
            pipeline_thread.inside = True
            try:
                return run(*args, **kwargs)
            finally:
                pipeline_thread.inside = False
        return entered

    def on_thread(name, real):
        def check(*args, **kwargs):
            if not getattr(pipeline_thread, "inside", False):
                off_thread.append(name)
            return real(*args, **kwargs)
        return check

    entered = on_pipeline_thread(engine.run_pipeline)
    optimize = on_pipeline_thread(optimizer.optimize)
    monkeypatch.setattr(bench, "run_pipeline", entered)
    monkeypatch.setattr(Gateway, "write", on_thread("write", real_write))
    monkeypatch.setattr(Gateway, "event", on_thread("event", real_event))
    fixtures = {"sig_pass": "signal_generator", "sig_fail": "signal_generator_fail"}

    def gateways(ws):
        def factory(design):
            turns = SCRIPTED / fixtures[design] / "turns.json" if design in fixtures else None
            backend = ScriptedBackend.from_file(turns) if turns else ScriptedBackend([])
            return Gateway(backend, transcript_path=ws / design / "transcript.jsonl",
                           run_id="0", clock=lambda: 0.0)
        return factory

    def toolchains(seed):
        def factory(design):
            outcomes = (scripted_toolchain(SCRIPTED / fixtures[design]).outcomes
                        if design in fixtures else [])
            return JitteredToolchain(outcomes, random.Random(seed), most=0.005)
        return factory

    def written(root) -> dict[str, str]:  # run id and clock are fixed, so no line varies
        return {path.relative_to(root).as_posix(): path.read_text()
                for path in sorted(root.rglob("*.jsonl"))}

    runs = []
    for repeat in range(10):
        root = tmp_path / str(repeat)
        for design in fixtures:  # the generate fixtures, each on this thread
            entered(spec_named(design), PipelineBudget(), gateways(root)(design),
                    toolchains(repeat)(design), root / design)
        for name, (turns, outcomes) in OPTIMIZE_RUNS.items():
            gateway = Gateway(ScriptedBackend(turns), run_id="0", clock=lambda: 0.0,
                              transcript_path=root / name / "transcript.jsonl")
            optimize(RtlArtifact((VERILOG / "adder_16bit.v").read_text()), ADDER_REPORT,
                     OptimizationGoal("timing"), gateway,
                     JitteredToolchain(outcomes, random.Random(repeat), most=0.005),
                     PipelineBudget(), ADDER_TB, root / name, CATALOG)
        cases = [BenchCase(spec=spec_named(name)) for name in [*fixtures, "sig_error"]]
        summary = run_suite(cases, gateways(root / "bench"), toolchains(repeat),
                            PipelineBudget(), root / "bench", workers=2)
        assert summary.per_case == {"sig_pass": "Pass", "sig_fail": "Fail",
                                    "sig_error": "InfraError"}
        runs.append(written(root))
    assert off_thread == []
    # a transcript and events per run; the unscripted case's transcript stays empty
    assert len(runs[0]) == 14
    assert runs[0]["bench/sig_error/transcript.jsonl"] == ""
    assert all(run == runs[0] for run in runs[1:])


# --- the run's one helper thread ---

class ThreadRecordingToolchain(ScriptedToolchain):
    """Records the thread each verify runs on."""

    def __init__(self, outcomes):
        super().__init__(outcomes)
        self.threads: list[threading.Thread] = []

    def verify(self, rtl_path, tb_path, workspace):
        self.threads.append(threading.current_thread())
        return super().verify(rtl_path, tb_path, workspace)


def optimize_adder(gateway, toolchain, workspace):
    return optimizer.optimize(
        RtlArtifact((VERILOG / "adder_16bit.v").read_text()), ADDER_REPORT,
        OptimizationGoal("timing"), gateway, toolchain, PipelineBudget(), ADDER_TB, workspace,
        CATALOG)


def test_each_run_verifies_on_one_helper_thread(tmp_path, signal_generator_spec):
    # one worker per run, reused for every revision, and never the caller
    generate = ThreadRecordingToolchain(scripted_toolchain(SCRIPTED / "signal_generator").outcomes)
    revisions, final = run_pipeline(
        signal_generator_spec, PipelineBudget(),
        scripted_gateway(SCRIPTED / "signal_generator", tmp_path), generate, tmp_path / "gen")
    assert final == "Pass" and len(revisions) == 2
    turns, outcomes = OPTIMIZE_RUNS["opt_fix"]
    fix = ThreadRecordingToolchain(outcomes)
    variant = optimize_adder(Gateway(ScriptedBackend(turns)), fix, tmp_path / "opt")
    assert variant.rtl.revision == 1
    for toolchain in (generate, fix):
        assert len(toolchain.threads) == 2
        assert len(set(toolchain.threads)) == 1
        assert toolchain.threads[0] is not threading.current_thread()


class EvaluatorInterrupted(ScriptedBackend):
    """The Evaluator's call is interrupted, as by Ctrl-C."""

    def complete(self, role_name, messages):
        if role_name == "Evaluator":
            raise KeyboardInterrupt
        return super().complete(role_name, messages)


@pytest.mark.parametrize("command, recorded", [
    ("generate", ["plan", "verdict", "outcome"]),
    ("optimize", ["outcome"]),
])
def test_interrupted_evaluator_still_records_the_outcome(tmp_path, command, recorded):
    before = set(threading.enumerate())
    with pytest.raises(KeyboardInterrupt):
        if command == "generate":
            backend = EvaluatorInterrupted([*OPENING, ("Reviewer", REVIEW_OK)])
            run_pipeline(make_spec(tmp_path), PipelineBudget(), Gateway(backend),
                         ScriptedToolchain([failing_outcome()]), tmp_path / "ws")
        else:
            optimize_adder(Gateway(EvaluatorInterrupted([("Optimizer", CLA_REPLY)])),
                           ScriptedToolchain([failing_outcome()]), tmp_path / "ws")
    assert [t for t in threading.enumerate() if t not in before] == []
    events = read_events(tmp_path / "ws")
    assert [e["event"] for e in events] == recorded
    assert events[-1]["kind"] == "FunctionalFail"
