import pytest

from conftest import REPORTS, VERILOG, EvaluatorDown, read_events, read_status, transcript_roles

from rtlflow.engine import PipelineBudget, RtlArtifact, extract_tags
from rtlflow.errors import BackendUnavailable, RtlflowError, UnparseableReply
from rtlflow.gateway import Gateway, ScriptedBackend
from rtlflow.inspect_rtl import _OPERATORS, fingerprint
from rtlflow.metrics import ALL_FIELDS, PpaMetrics, parse_report
from rtlflow import optimizer
from rtlflow.optimizer import (
    GOALS,
    OptimizationGoal,
    VOCABULARY,
    Recommendation,
    _PRED_RE,
    _parse_card,
    build_icl_prompt,
    eval_predicate,
    for_goal,
    load_catalog,
    optimize,
    select_techniques,
)
from rtlflow.toolchain import ScriptedToolchain, VerificationOutcome

ADDER = (VERILOG / "adder_16bit.v").read_text()
BASE_REPORT = parse_report((REPORTS / "adder_16bit_base.rpt").read_text())

CARD_OK = """---
id: demo_card
goal: power
predicates:
  - register_bits > 0
boost:
  - clocked_always >= 1
aliases: []
caveats: small area overhead
---
Gate idle registers to cut switching power.

```verilog
always @(posedge clk) if (en) q <= d;
```
"""


# --- catalog loading ---

def test_bundled_catalog_shape():
    catalog = load_catalog()  # checks the required coverage: must not raise
    assert len(catalog) == 15
    assert list(catalog) == sorted(catalog)
    for goal in GOALS:
        assert len(for_goal(catalog, goal)) == 5


def test_parse_card_ok():
    card = _parse_card(CARD_OK, "demo.md")
    assert card.id == "demo_card"
    assert card.predicates == ["register_bits > 0"]
    assert "if (en)" in card.example_snippet
    assert card.caveats == "small area overhead"


# a row whose message was reworded keeps the id it was first collected under
@pytest.mark.parametrize("mutation, needle", [
    (lambda t: t.replace("---\n", "", 1), "front-matter"),
    (lambda t: t.replace("```verilog\nalways @(posedge clk) if (en) q <= d;\n```\n", ""), "snippet"),
    pytest.param(lambda t: t.replace("id: demo_card\n", ""), "demo.md: missing key 'id'",
                 id="<lambda>-missing field"),
    pytest.param(lambda t: t.replace("aliases: []", "aliases: 5"),
                 "demo.md: aliases: expected list, got 5", id="<lambda>-bad or missing field"),
    (lambda t: t.replace("goal: power", "goal: speed"), "unknown goal"),
    pytest.param(lambda t: t.replace("id: demo_card", "id: 5"), "demo.md: id: expected str, got 5",
                 id="<lambda>-demo.md: id must be a string, got 5"),
    (lambda t: t.replace("Gate idle registers to cut switching power.\n", ""), "summary"),
    (lambda t: t.replace("register_bits > 0", "2 < cp_length"),
     "demo.md: unparseable predicate: '2 < cp_length'"),
    (lambda t: t.replace("clocked_always >= 1", "clocked_always >="),
     "unparseable predicate: 'clocked_always >='"),
    (lambda t: t.replace("clocked_always >= 1", "clocked_always >= 1.2.3"),
     "unparseable predicate: 'clocked_always >= 1.2.3'"),
    pytest.param(lambda t: t.replace("- register_bits > 0", "- 5"),
                 "demo.md: predicates[0]: expected str, got 5",
                 id="<lambda>-unparseable predicate: 5"),
    # a name or key outside the vocabulary would load and never fire
    (lambda t: t.replace("register_bits > 0", "cp_lenght > 2"),
     "demo.md: unknown name 'cp_lenght' in predicate 'cp_lenght > 2'"),
    (lambda t: t.replace("clocked_always >= 1", "not sync_reset"),
     "demo.md: unknown name 'sync_reset' in predicate 'not sync_reset'"),
    pytest.param(lambda t: t.replace("boost:", "boosts:"), "demo.md: unknown key 'boosts'",
                 id="<lambda>-demo.md: unknown field 'boosts'"),
    # a string where a list belongs is not read as a list of its characters
    pytest.param(lambda t: t.replace("boost:\n  - clocked_always >= 1", "boost: fsm_detected"),
                 "demo.md: boost: expected list, got 'fsm_detected'",
                 id="<lambda>-demo.md: bad or missing field 'boost': 'fsm_detected' is not a list"),
    pytest.param(lambda t: t.replace("predicates:\n  - register_bits > 0",
                                     "predicates: register_bits > 0"),
                 "demo.md: predicates: expected list, got 'register_bits > 0'",
                 id="<lambda>-demo.md: bad or missing field 'predicates': "
                    "'register_bits > 0' is not a list"),
    pytest.param(lambda t: t.replace("aliases: []", "aliases: gating"),
                 "demo.md: aliases: expected list, got 'gating'",
                 id="<lambda>-demo.md: bad or missing field 'aliases': 'gating' is not a list"),
    pytest.param(lambda t: t.replace("predicates:\n  - register_bits > 0", "predicates:"),
                 "demo.md: predicates: expected list, got None",
                 id="<lambda>-demo.md: bad or missing field 'predicates': None is not a list"),
    # every item of a list and every field has its declared type
    (lambda t: t.replace("aliases: []", "aliases: [[path_restructuring]]"),
     "demo.md: aliases[0]: expected str, got ['path_restructuring']"),
    (lambda t: t.replace("caveats: small area overhead", "caveats: [adds area, {a: 1}]"),
     "demo.md: caveats: expected str, got ['adds area', {'a': 1}]"),
])
def test_parse_card_malformed(mutation, needle):
    with pytest.raises(RtlflowError) as exc:
        _parse_card(mutation(CARD_OK), "demo.md")
    assert needle in str(exc.value)


def test_duplicate_id_rejected(tmp_path):
    for name in ("a.md", "b.md"):
        (tmp_path / name).write_text(CARD_OK)
    with pytest.raises(RtlflowError, match="two cards have id 'demo_card'"):
        load_catalog(tmp_path)


def test_custom_dir_without_cards(tmp_path):
    (tmp_path / "notes.txt").write_text(CARD_OK)
    for card_dir in (tmp_path, tmp_path / "absent"):
        with pytest.raises(RtlflowError, match="no card files"):
            load_catalog(card_dir)


def test_custom_dir_missing_required(tmp_path):
    (tmp_path / "only.md").write_text(CARD_OK)
    with pytest.raises(RtlflowError, match="^no power card covers"):
        load_catalog(tmp_path)


def test_every_vocabulary_signal_has_a_reader():
    # a design fact no bundled card reads is dead code: it goes with its last reader
    read = {_PRED_RE.match(p)[2] for card in load_catalog().values()
            for p in card.predicates + card.boost}
    ops = {f"{op}_ops" for _, op in _OPERATORS if op}
    assert sorted(VOCABULARY - ops - set(ALL_FIELDS) - read) == []
    assert optimizer._context(fingerprint(ADDER), BASE_REPORT).keys() == VOCABULARY


# --- predicates ---

def test_eval_predicate_forms():
    ctx = {"register_bits": 8, "is_combinational": False, "cp_length": 5.77}
    assert eval_predicate("register_bits > 0", ctx)
    assert eval_predicate("not is_combinational", ctx)
    assert eval_predicate("cp_length >= 5.77", ctx)
    assert not eval_predicate("cp_length < 5", ctx)
    assert not eval_predicate("unknown_name", ctx)  # absent names are False
    assert eval_predicate("not unknown_name", ctx)
    with pytest.raises(RtlflowError, match="^unparseable predicate: '3 > register_bits'$"):
        eval_predicate("3 > register_bits", ctx)


def test_predicate_threshold_has_the_report_number_grammar():
    card = _parse_card(CARD_OK.replace("register_bits > 0", "cp_length > 1e3"), "demo.md")
    assert card.predicates == ["cp_length > 1e3"]
    assert eval_predicate(card.predicates[0], {"cp_length": 1500.0})
    assert not eval_predicate(card.predicates[0], {"cp_length": 5.77})


# --- selection on the ripple-adder case study ---

@pytest.fixture(scope="module")
def catalog():
    return load_catalog()


@pytest.fixture(scope="module")
def adder_fp():
    return fingerprint(ADDER)


def test_select_timing(adder_fp, catalog):
    rec = select_techniques(adder_fp, BASE_REPORT, OptimizationGoal("timing"), catalog)
    assert rec.techniques == ["carry_lookahead_restructuring", "pipelining"]
    assert "carry_chain_detected" in rec.rationale


def test_select_power(adder_fp, catalog):
    rec = select_techniques(adder_fp, BASE_REPORT, OptimizationGoal("power"), catalog)
    assert rec.techniques == ["operand_isolation", "clock_gating"]


def test_select_area(adder_fp, catalog):
    rec = select_techniques(adder_fp, BASE_REPORT, OptimizationGoal("area"), catalog)
    assert "resource_sharing" in rec.techniques
    assert len(rec.techniques) <= 2


def test_select_fallback_when_nothing_applies(catalog):
    fp = fingerprint("module t (input a, output y);\n    assign y = a;\nendmodule\n")
    # a short critical path and no logic depth meet no timing predicate
    quiet = PpaMetrics(cell_area=1.0, design_area=1.0, dynamic_power=0.0, leakage_power=0.0,
                       cp_length=1.0)
    rec = select_techniques(fp, quiet, OptimizationGoal("timing"), catalog)
    assert len(rec.techniques) == 1
    assert "default" in rec.rationale


# --- prompt assembly ---

def baseline_artifact():
    return RtlArtifact(verilog_text=ADDER, revision=0)


def test_icl_prompt_contains_only_selected_cards(adder_fp, catalog):
    rec = select_techniques(adder_fp, BASE_REPORT, OptimizationGoal("timing"), catalog)
    messages = build_icl_prompt(rec, baseline_artifact(), BASE_REPORT, catalog)
    assert [m.role_tag for m in messages] == ["system", "user"]
    sys_text, user_text = messages[0].content, messages[1].content
    for cid in rec.techniques:
        assert f"Technique: {cid}" in sys_text
    excluded = set(catalog) - set(rec.techniques)
    for cid in excluded:
        assert f"Technique: {cid}" not in sys_text
    assert "module adder_16bit" in user_text
    assert "cell_area: 187.05" in user_text
    assert "timing-optimized" in user_text


def test_icl_prompt_sends_a_large_baseline_whole(catalog):
    # a baseline of any size goes out whole (this one is past 24,000
    # characters), and every selected card keeps its full example
    big = ADDER + "".join(f"// note {i:05d}: {'x' * 60}\n" for i in range(400))
    assert len(big) > 24_000
    fp = fingerprint(big)
    for goal in GOALS:
        rec = select_techniques(fp, BASE_REPORT, OptimizationGoal(goal), catalog)
        messages = build_icl_prompt(rec, RtlArtifact(verilog_text=big, revision=0),
                                    BASE_REPORT, catalog)
        assert f"```verilog\n{big.rstrip()}\n```" in messages[1].content
        for cid in rec.techniques:
            example = f"Example:\n```verilog\n{catalog[cid].example_snippet}\n```\n"
            assert example in messages[0].content, (goal, cid)


def test_icl_prompt_unknown_card(catalog):
    rec = Recommendation(OptimizationGoal("area"), ["no_such_card"], "")
    with pytest.raises(KeyError):
        build_icl_prompt(rec, baseline_artifact(), BASE_REPORT, catalog)


# --- optimization pass with scripted doubles ---

CLA_REPLY = "Optimized variant:\n```verilog\n" + (VERILOG / "adder_16bit_cla.v").read_text() + "```"

FIX_REPLY = CLA_REPLY.replace("```verilog\n", "```verilog\n// FIX 1: rebalance lookahead groups\n")


def test_optimize_pass_first_try(tmp_path, catalog):
    gateway = Gateway(ScriptedBackend([("Optimizer", CLA_REPLY)]))
    toolchain = ScriptedToolchain([VerificationOutcome("Pass")])
    variant = optimize(
        baseline_artifact(), BASE_REPORT, OptimizationGoal("timing"), gateway,
        toolchain, PipelineBudget(), VERILOG / "adder_16bit_tb.v", tmp_path, catalog,
    )
    assert variant.successful
    assert variant.applied.techniques == ["carry_lookahead_restructuring", "pipelining"]
    assert (tmp_path / "rev_0.v").exists()


def test_optimize_recovers_through_fix_loop(tmp_path, catalog):
    turns = [
        ("Optimizer", CLA_REPLY),
        ("Evaluator", "1. group generate term wrong"),
        ("Programmer", FIX_REPLY),
    ]
    gateway = Gateway(ScriptedBackend(turns))
    toolchain = ScriptedToolchain([
        VerificationOutcome("FunctionalFail", failing_checks=["ERROR: sum mismatch"]),
        VerificationOutcome("Pass"),
    ])
    variant = optimize(
        baseline_artifact(), BASE_REPORT, OptimizationGoal("timing"), gateway,
        toolchain, PipelineBudget(), VERILOG / "adder_16bit_tb.v", tmp_path, catalog,
    )
    assert variant.successful
    assert variant.rtl.revision == 1
    assert 1 in extract_tags(variant.rtl.verilog_text, "FIX")
    # the same persistence as a generate run: every revision can be replayed
    for name in ("rev_0.v", "rev_1.v"):
        assert (tmp_path / name).exists(), name
    events = read_events(tmp_path)
    assert [(e["event"], e["revision"]) for e in events] == [
        ("outcome", 0), ("diagnosis", 0), ("outcome", 1)]
    assert events[0]["kind"] == "FunctionalFail"


@pytest.mark.parametrize("backend_type, error, message, evaluator_roles", [
    (EvaluatorDown, BackendUnavailable, "backend failed after 4 attempt", []),
    (ScriptedBackend, UnparseableReply, "evaluator reply has no numbered fixes", ["Evaluator"]),
], ids=["unavailable", "unparseable"])
def test_optimize_evaluator_fault_surfaces_after_the_outcome(tmp_path, catalog, backend_type,
                                                             error, message, evaluator_roles):
    turns = [("Optimizer", CLA_REPLY), ("Evaluator", "The carry looks wrong; regroup it.")]
    transcript = tmp_path / "transcript.jsonl"
    toolchain = ScriptedToolchain(
        [VerificationOutcome("FunctionalFail", failing_checks=["ERROR: x"])])
    with pytest.raises(error, match=message):
        optimize(
            baseline_artifact(), BASE_REPORT, OptimizationGoal("timing"),
            Gateway(backend_type(turns), transcript_path=transcript), toolchain,
            PipelineBudget(), VERILOG / "adder_16bit_tb.v", tmp_path / "ws", catalog,
        )
    events = read_events(tmp_path / "ws")
    assert [(e["event"], e["revision"], e["kind"]) for e in events] == [
        ("outcome", 0, "FunctionalFail")]
    assert transcript_roles(transcript) == ["Optimizer", *evaluator_roles]


def test_optimize_unrecoverable_regression(tmp_path, catalog):
    budget = PipelineBudget(max_fix_iterations=2)
    turns = [("Optimizer", CLA_REPLY)] + [
        ("Evaluator", "1. still wrong"), ("Programmer", FIX_REPLY),
    ] * 2
    gateway = Gateway(ScriptedBackend(turns))
    toolchain = ScriptedToolchain(
        [VerificationOutcome("FunctionalFail", failing_checks=["ERROR: x"])] * 3
    )
    with pytest.raises(RtlflowError, match="BudgetExhausted after 3"):
        optimize(
            baseline_artifact(), BASE_REPORT, OptimizationGoal("timing"), gateway,
            toolchain, budget, VERILOG / "adder_16bit_tb.v", tmp_path, catalog,
        )


def test_optimize_tool_error_is_unrecoverable(tmp_path, catalog):
    # a toolchain failure ends the loop at once; it is not charged to the budget
    gateway = Gateway(ScriptedBackend([("Optimizer", CLA_REPLY)]))
    toolchain = ScriptedToolchain([VerificationOutcome("ToolError")])
    with pytest.raises(RtlflowError, match="ToolError after 1") as info:
        optimize(
            baseline_artifact(), BASE_REPORT, OptimizationGoal("timing"), gateway,
            toolchain, PipelineBudget(), VERILOG / "adder_16bit_tb.v", tmp_path, catalog,
        )
    assert "BudgetExhausted" not in str(info.value)
    assert [(e["event"], e["revision"]) for e in read_events(tmp_path)] == [("outcome", 0)]


FAILING = VerificationOutcome("FunctionalFail", failing_checks=["ERROR: x"])


@pytest.mark.parametrize("backend_type, turns, outcomes, raised, end", [
    pytest.param(ScriptedBackend, [("Optimizer", CLA_REPLY)], [VerificationOutcome("Pass")],
                 None, {"final_status": "Pass", "iterations_used": 1, "revisions": [0]},
                 id="pass"),
    pytest.param(ScriptedBackend, [("Optimizer", CLA_REPLY), ("Evaluator", "1. still wrong"),
                                   ("Programmer", FIX_REPLY)], [FAILING] * 2, RtlflowError,
                 {"final_status": "BudgetExhausted", "iterations_used": 2, "revisions": [0, 1]},
                 id="budget-exhausted"),
    pytest.param(ScriptedBackend, [("Optimizer", CLA_REPLY)], [VerificationOutcome("ToolError")],
                 RtlflowError,
                 {"final_status": "ToolError", "iterations_used": 1, "revisions": [0]},
                 id="tool-error"),
    pytest.param(ScriptedBackend, [("Optimizer", "No code, sorry.")], [], UnparseableReply,
                 {"final_status": "Error", "error_type": "UnparseableReply",
                  "error": "reply contains no Verilog module"}, id="unparseable-optimizer-reply"),
    pytest.param(EvaluatorDown, [("Optimizer", CLA_REPLY)], [FAILING], BackendUnavailable,
                 {"final_status": "Error", "error_type": "BackendUnavailable",
                  "error": "backend failed after 4 attempt(s): 503"}, id="backend-outage"),
])
def test_optimize_writes_its_status_at_every_end(tmp_path, catalog, adder_fp, backend_type, turns,
                                                 outcomes, raised, end):
    # a library call, as a caller other than the command line makes it
    try:
        optimize(
            baseline_artifact(), BASE_REPORT, OptimizationGoal("timing"),
            Gateway(backend_type(turns)), ScriptedToolchain(outcomes),
            PipelineBudget(max_fix_iterations=1), VERILOG / "adder_16bit_tb.v", tmp_path, catalog,
        )
    except RtlflowError as exc:
        assert type(exc) is raised
    else:
        assert raised is None
    rec = select_techniques(adder_fp, BASE_REPORT, OptimizationGoal("timing"), catalog)
    read_events(tmp_path)  # whose last record is the `end` record, equal to status.json
    assert read_status(tmp_path) == {
        "goal": "timing", "techniques": rec.techniques, "rationale": rec.rationale, **end}
