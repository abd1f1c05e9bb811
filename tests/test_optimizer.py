import pytest

from conftest import REPORTS, VERILOG, read_events

from rtlflow.engine import PipelineBudget, RtlArtifact
from rtlflow.errors import (
    DuplicateId,
    FunctionalRegressionUnrecoverable,
    MalformedCard,
    MissingRequiredTechnique,
    PromptOverBudget,
)
from rtlflow.gateway import Gateway, ScriptedBackend
from rtlflow.inspect_rtl import fingerprint
from rtlflow.metrics import parse_report
from rtlflow.optimizer import (
    GOALS,
    Catalog,
    OptimizationGoal,
    Recommendation,
    _parse_card,
    build_icl_prompt,
    eval_predicate,
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
    catalog = load_catalog()
    assert len(catalog.cards) == 15
    for goal in GOALS:
        assert len(catalog.for_goal(goal)) == 5
    catalog.check_required()  # must not raise


def test_parse_card_ok():
    card = _parse_card(CARD_OK, "demo.md")
    assert card.id == "demo_card"
    assert card.applicability == ["register_bits > 0"]
    assert "if (en)" in card.example_snippet
    assert card.caveats == "small area overhead"


@pytest.mark.parametrize("mutation, needle", [
    (lambda t: t.replace("---\n", "", 1), "front-matter"),
    (lambda t: t.replace("```verilog\nalways @(posedge clk) if (en) q <= d;\n```\n", ""), "snippet"),
    (lambda t: t.replace("id: demo_card\n", ""), "missing field"),
    (lambda t: t.replace("aliases: []", "aliases: 5"), "bad or missing field"),
    (lambda t: t.replace("goal: power", "goal: speed"), "unknown goal"),
    (lambda t: t.replace("Gate idle registers to cut switching power.\n", ""), "summary"),
])
def test_parse_card_malformed(mutation, needle):
    with pytest.raises(MalformedCard) as exc:
        _parse_card(mutation(CARD_OK), "demo.md")
    assert needle in str(exc.value)


def test_duplicate_id_rejected():
    card = _parse_card(CARD_OK, "demo.md")
    with pytest.raises(DuplicateId):
        Catalog([card, card])


def test_custom_dir_without_cards(tmp_path):
    (tmp_path / "notes.txt").write_text(CARD_OK)
    for card_dir in (tmp_path, tmp_path / "absent"):
        with pytest.raises(MalformedCard, match="no card files"):
            load_catalog(card_dir)


def test_custom_dir_missing_required(tmp_path):
    (tmp_path / "only.md").write_text(CARD_OK)
    with pytest.raises(MissingRequiredTechnique):
        load_catalog(tmp_path)


# --- predicates ---

def test_eval_predicate_forms():
    ctx = {"register_bits": 8, "is_combinational": False, "cp_length": 5.77}
    assert eval_predicate("register_bits > 0", ctx)
    assert eval_predicate("not is_combinational", ctx)
    assert eval_predicate("cp_length >= 5.77", ctx)
    assert not eval_predicate("cp_length < 5", ctx)
    assert not eval_predicate("unknown_name", ctx)  # absent names are False
    assert eval_predicate("not unknown_name", ctx)
    with pytest.raises(MalformedCard):
        eval_predicate("3 > register_bits", ctx)


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
    rec = select_techniques(fp, None, OptimizationGoal("timing"), catalog)
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
    excluded = set(catalog.cards) - set(rec.techniques)
    for cid in excluded:
        assert f"Technique: {cid}" not in sys_text
    assert "module adder_16bit" in user_text
    assert "cell_area: 187.05" in user_text
    assert "timing-optimized" in user_text


def test_icl_prompt_budget_truncates_snippets_only(adder_fp, catalog):
    rec = select_techniques(adder_fp, BASE_REPORT, OptimizationGoal("timing"), catalog)
    full = build_icl_prompt(rec, baseline_artifact(), BASE_REPORT, catalog)
    budget = sum(len(m.content) for m in full) - 50
    tight = build_icl_prompt(rec, baseline_artifact(), BASE_REPORT, catalog, char_budget=budget)
    assert sum(len(m.content) for m in tight) <= budget
    # baseline code and report survive untouched
    assert "module adder_16bit" in tight[1].content
    assert tight[1].content == full[1].content


def test_icl_prompt_over_budget(adder_fp, catalog):
    rec = select_techniques(adder_fp, BASE_REPORT, OptimizationGoal("timing"), catalog)
    with pytest.raises(PromptOverBudget):
        build_icl_prompt(rec, baseline_artifact(), BASE_REPORT, catalog, char_budget=500)


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
    assert 1 in variant.rtl.fix_tags
    # the same persistence as a generate run: every revision can be replayed
    for name in ("rev_0.v", "rev_1.v"):
        assert (tmp_path / name).exists(), name
    events = read_events(tmp_path)
    assert [(e["event"], e["revision"]) for e in events] == [
        ("outcome", 0), ("diagnosis", 0), ("outcome", 1)]
    assert events[0]["kind"] == "FunctionalFail"


def test_optimize_unrecoverable_regression(tmp_path, catalog):
    budget = PipelineBudget(max_fix_iterations=2)
    turns = [("Optimizer", CLA_REPLY)] + [
        ("Evaluator", "1. still wrong"), ("Programmer", FIX_REPLY),
    ] * 2
    gateway = Gateway(ScriptedBackend(turns))
    toolchain = ScriptedToolchain(
        [VerificationOutcome("FunctionalFail", failing_checks=["ERROR: x"])] * 3
    )
    with pytest.raises(FunctionalRegressionUnrecoverable, match="BudgetExhausted after 3"):
        optimize(
            baseline_artifact(), BASE_REPORT, OptimizationGoal("timing"), gateway,
            toolchain, budget, VERILOG / "adder_16bit_tb.v", tmp_path, catalog,
        )


def test_optimize_tool_error_is_unrecoverable(tmp_path, catalog):
    # a toolchain failure ends the loop at once; it is not charged to the budget
    gateway = Gateway(ScriptedBackend([("Optimizer", CLA_REPLY)]))
    toolchain = ScriptedToolchain([VerificationOutcome("ToolError")])
    with pytest.raises(FunctionalRegressionUnrecoverable, match="ToolError after 1") as info:
        optimize(
            baseline_artifact(), BASE_REPORT, OptimizationGoal("timing"), gateway,
            toolchain, PipelineBudget(), VERILOG / "adder_16bit_tb.v", tmp_path, catalog,
        )
    assert "BudgetExhausted" not in str(info.value)
    assert [(e["event"], e["revision"]) for e in read_events(tmp_path)] == [("outcome", 0)]
