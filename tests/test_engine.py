import json
import random

import pytest

from conftest import SCRIPTED, scripted_gateway, scripted_toolchain

from rtlflow.engine import (
    DesignSpec,
    FixDiagnosis,
    ImplementationPlan,
    PipelineBudget,
    PlanStep,
    Port,
    RtlArtifact,
    apply_fixes,
    diagnose_failures,
    extract_tags,
    extract_verilog,
    make_plan,
    review_rtl,
    run_pipeline,
    write_rtl,
)
from rtlflow.errors import (
    InvalidBudget,
    NoCodeBlock,
    UnparseablePlan,
    UnparseableReview,
)
from rtlflow.gateway import Gateway, ScriptedBackend
from rtlflow.toolchain import ScriptedToolchain, VerificationOutcome


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


def session_for(role, reply):
    return Gateway(ScriptedBackend([(role, reply)])).session(role)


# --- spec / budget validation ---

def test_spec_rejects_duplicate_ports(tmp_path):
    tb = tmp_path / "tb.v"
    tb.write_text("x")
    with pytest.raises(ValueError):
        DesignSpec("d", "d", "d", [Port("a", "in"), Port("a", "out")], str(tb))


def test_budget_validation():
    with pytest.raises(InvalidBudget):
        PipelineBudget(max_fix_iterations=0)
    with pytest.raises(InvalidBudget):
        PipelineBudget(max_review_rounds=0)


# --- plan parsing ---

def test_make_plan_four_steps(tmp_path):
    reply = "1. registers\n2. always block\n3. counting\n4. output"
    plan = make_plan(make_spec(tmp_path), session_for("Planner", reply))
    assert [s.index for s in plan.steps] == [1, 2, 3, 4]
    assert plan.steps[1].text == "always block"


def test_make_plan_unparseable(tmp_path):
    with pytest.raises(UnparseablePlan):
        make_plan(make_spec(tmp_path), session_for("Planner", "no steps needed"))


def test_plan_prompt_carries_module_and_ports(tmp_path):
    spec = make_spec(tmp_path, name="widget")
    session = session_for("Planner", "1. only step")
    make_plan(spec, session)
    prompt = session.history[0].content
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
        plan = make_plan(make_spec(tmp_path), session_for("Planner", reply))
        got = [(s.index, s.text) for s in plan.steps]
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
    return ImplementationPlan([PlanStep(i, f"step {i}") for i in range(1, 5)])


def test_write_rtl_extracts_step_tags(tmp_path):
    artifact = write_rtl(four_step_plan(), make_spec(tmp_path), session_for("Programmer", CODE_REPLY))
    assert artifact.revision == 0
    assert set(artifact.step_tags) == {1, 2, 3, 4}
    assert artifact.notes == []


def test_write_rtl_no_code_block(tmp_path):
    with pytest.raises(NoCodeBlock):
        write_rtl(four_step_plan(), make_spec(tmp_path), session_for("Programmer", "just prose"))


def test_write_rtl_missing_tags_recorded(tmp_path):
    truncated = CODE_REPLY.replace("// STEP 4: output\n        ", "")
    artifact = write_rtl(four_step_plan(), make_spec(tmp_path), session_for("Programmer", truncated))
    assert set(artifact.step_tags) == {1, 2, 3}
    assert any("MissingStepTags" in n for n in artifact.notes)


def test_extract_verilog_unfenced():
    code = extract_verilog("prose before\nmodule m; assign y = 1; endmodule\nafter")
    assert code.startswith("module m") and code.rstrip().endswith("endmodule")


def test_tag_line_ranges():
    code = "\n".join(
        ["module m;", "// STEP 1: a", "wire a;", "// STEP 2: b", "wire b;", "endmodule"]
    )
    tags = extract_tags(code, "STEP")
    assert tags == {1: (2, 3), 2: (4, 6)}


# --- review ---

REVIEW_OK = "\n".join(f"STEP {i}: IMPLEMENTED - evidence {i}" for i in range(1, 5))


def test_review_complete():
    verdict = review_rtl(four_step_plan(), RtlArtifact(CODE_REPLY), session_for("Reviewer", REVIEW_OK))
    assert verdict.complete
    assert verdict.per_step[2].evidence == "evidence 2"


def test_review_missing_step():
    reply = REVIEW_OK.replace("STEP 3: IMPLEMENTED - evidence 3", "STEP 3: MISSING - no counter")
    verdict = review_rtl(four_step_plan(), RtlArtifact(CODE_REPLY), session_for("Reviewer", reply))
    assert not verdict.complete
    assert verdict.missing == [3]


def test_review_out_of_range_index():
    reply = REVIEW_OK + "\nSTEP 5: IMPLEMENTED - phantom"
    with pytest.raises(UnparseableReview):
        review_rtl(four_step_plan(), RtlArtifact(CODE_REPLY), session_for("Reviewer", reply))


def test_review_fuzz_out_of_range():
    rng = random.Random(3)
    plan = four_step_plan()
    for _ in range(20):
        indices = rng.sample(range(1, 30), 4)
        reply = "\n".join(f"STEP {i}: IMPLEMENTED - x" for i in indices)
        if set(indices) == {1, 2, 3, 4}:
            continue
        with pytest.raises(UnparseableReview):
            review_rtl(plan, RtlArtifact(CODE_REPLY), session_for("Reviewer", reply))


def test_review_complete_flag_is_recomputed():
    # a reply claiming completeness in prose but marking a step MISSING
    reply = (
        "All steps are done, great work!\n"
        + REVIEW_OK.replace("STEP 1: IMPLEMENTED - evidence 1", "STEP 1: MISSING - nothing")
    )
    verdict = review_rtl(four_step_plan(), RtlArtifact(CODE_REPLY), session_for("Reviewer", reply))
    assert verdict.complete is False


# --- diagnosis / fixes ---

def failing_outcome():
    return VerificationOutcome("FunctionalFail", failing_checks=["ERROR: mismatch at vector 7"])


def test_diagnose_parses_fixes():
    reply = "1. fix the carry\n2. widen the register\n3. reset properly"
    diagnosis = diagnose_failures(
        RtlArtifact("module m; endmodule"), failing_outcome(), "tb text",
        session_for("Evaluator", reply),
    )
    assert len(diagnosis.fixes) == 3


def test_diagnose_rejects_pass_outcome():
    with pytest.raises(ValueError):
        diagnose_failures(
            RtlArtifact("x"), VerificationOutcome("Pass"), "tb",
            session_for("Evaluator", "1. nothing"),
        )


def test_diagnosis_requires_fixes():
    with pytest.raises(ValueError):
        FixDiagnosis(fixes=[], source_errors=[])


def test_diagnose_prompt_contains_log_and_testbench():
    session = session_for("Evaluator", "1. a fix")
    diagnose_failures(RtlArtifact("module m; endmodule"), failing_outcome(), "TB_SENTINEL", session)
    prompt = session.history[0].content
    assert "ERROR: mismatch at vector 7" in prompt
    assert "TB_SENTINEL" in prompt


FIXED_REPLY = CODE_REPLY.replace(
    "// STEP 3: counting",
    "// STEP 3: counting\n        // FIX 1: carry\n        // FIX 2: width\n        // FIX 3: reset",
)


def test_apply_fixes_increments_revision():
    base = RtlArtifact("module toy; endmodule", step_tags={1: (1, 1)}, revision=0)
    diagnosis = FixDiagnosis(fixes=[type("F", (), {"description": f"f{i}"})() for i in range(3)],
                             source_errors=[])
    fixed = apply_fixes(base, diagnosis, session_for("Programmer", FIXED_REPLY))
    assert fixed.revision == 1
    assert set(fixed.fix_tags) == {1, 2, 3}
    assert set(fixed.step_tags) == {1, 2, 3, 4}


# --- full pipeline ---

def test_pipeline_pass_on_second_iteration(tmp_path, signal_generator_spec):
    gateway = scripted_gateway(SCRIPTED / "signal_generator", tmp_path)
    toolchain = scripted_toolchain(SCRIPTED / "signal_generator")
    transcript = run_pipeline(
        signal_generator_spec, PipelineBudget(), gateway, toolchain, tmp_path / "ws"
    )
    assert transcript.final_status == "Pass"
    assert transcript.iterations_used == 2
    diagnoses = [r.diagnosis for r in transcript.revisions if r.diagnosis]
    assert len(diagnoses) == 1 and len(diagnoses[0].fixes) == 3
    rev1 = (tmp_path / "ws" / "rev_1.v").read_text()
    for k in (1, 2, 3):
        assert f"// FIX {k}:" in rev1
    assert [r.rtl.revision for r in transcript.revisions] == [0, 1]


def test_pipeline_budget_exhausted(tmp_path, signal_generator_spec):
    gateway = scripted_gateway(SCRIPTED / "signal_generator_fail", tmp_path)
    toolchain = scripted_toolchain(SCRIPTED / "signal_generator_fail")
    transcript = run_pipeline(
        signal_generator_spec, PipelineBudget(max_fix_iterations=3), gateway, toolchain,
        tmp_path / "ws",
    )
    assert transcript.final_status == "BudgetExhausted"
    assert len(transcript.revisions) == 4
    assert [r.rtl.revision for r in transcript.revisions] == [0, 1, 2, 3]


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
    transcript = run_pipeline(spec, PipelineBudget(), gateway, toolchain, tmp_path / "ws")
    assert transcript.final_status == "Pass"
    assert transcript.iterations_used == 1
    # exactly one re-program happened before the single verification
    assert toolchain.cursor == 1


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
    for name in ("spec.json", "plan.txt", "rev_0.v", "rev_1.v", "verdict_0.json",
                 "outcome_0.json", "diagnosis_0.json", "status.json"):
        assert (ws / name).exists(), name
    # every reply carries its tags, so no revision has notes
    assert not list(ws.glob("notes_*.json"))


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
    assert json.loads((ws / "notes_0.json").read_text()) == ["MissingStepTags: [4]"]


def test_review_rewrite_keeps_missing_step_note(tmp_path):
    # the re-programmed artifact replaces the first one; its own missing tag is noted
    incomplete = REVIEW_OK.replace("STEP 4: IMPLEMENTED - evidence 4", "STEP 4: MISSING - none")
    turns = [
        ("Planner", "1. a\n2. b\n3. c\n4. d"),
        ("Programmer", CODE_REPLY),
        ("Reviewer", incomplete),
        ("Programmer", CODE_REPLY.replace("// STEP 2: always block\n    ", "")),
        ("Reviewer", REVIEW_OK),
    ]
    toolchain = ScriptedToolchain([VerificationOutcome("Pass")])
    ws = tmp_path / "ws"
    transcript = run_pipeline(make_spec(tmp_path), PipelineBudget(),
                              Gateway(ScriptedBackend(turns)), toolchain, ws)
    assert transcript.revisions[0].rtl.notes == ["MissingStepTags: [2]"]
    assert json.loads((ws / "notes_0.json").read_text()) == ["MissingStepTags: [2]"]
