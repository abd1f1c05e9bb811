"""Technique knowledge base, goal-directed selection and ICL optimization.

Cards live as markdown files with YAML front-matter; applicability is a
small declarative predicate language over fingerprint fields and report
thresholds, so the selection logic stays data, auditable and editable.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Optional

import yaml

from .engine import PipelineBudget, RtlArtifact, artifact_from_reply, fix_loop
# not called here: kept because perfbench/trace.py wraps them as optimizer attributes
from .engine import apply_fixes, diagnose_failures, extract_tags, extract_verilog  # noqa: F401
from .errors import (
    DuplicateId,
    FunctionalRegressionUnrecoverable,
    MalformedCard,
    MissingRequiredTechnique,
    PromptOverBudget,
)
from .gateway import ChatMessage, Gateway, system, user
from .inspect_rtl import DesignFingerprint, fingerprint
from .metrics import SynthesisReport, emit_canonical
from .prompts import render_prompt
from .toolchain import VerificationOutcome
from .yamlload import safe_load

log = logging.getLogger(__name__)

GOALS = ("power", "timing", "area")

# the catalog must cover these technique names (aliases count)
REQUIRED_TECHNIQUES = {
    "power": [
        "clock_gating",
        "power_gating",
        "operand_isolation",
        "register_update_suppression",
        "conditional_accumulation",
    ],
    "timing": [
        "pipelining",
        "register_retiming",
        "loop_unrolling",
        "logical_effort",
        "path_restructuring",
    ],
    "area": [
        "resource_sharing",
        "fsm_state_encoding",
        "logic_consolidation",
        "register_optimization",
        "technology_mapping",
    ],
}

MAX_TECHNIQUES_PER_PASS = 2
DEFAULT_PROMPT_BUDGET = 24_000  # characters
_MIN_SNIPPET = 120  # keep at least the snippet's head when truncating


@dataclass
class OptimizationGoal:
    kind: str

    def __post_init__(self):
        if self.kind not in GOALS:
            raise ValueError(f"goal must be one of {GOALS}, got {self.kind!r}")


@dataclass
class TechniqueCard:
    id: str
    goal: str
    summary: str
    applicability: list[str]
    example_snippet: str
    caveats: str = ""
    boosts: list[str] = field(default_factory=list)
    aliases: list[str] = field(default_factory=list)


@dataclass
class Recommendation:
    goal: OptimizationGoal
    techniques: list[str]
    rationale: str


@dataclass
class OptimizedVariant:
    goal: OptimizationGoal
    rtl: RtlArtifact
    verification: VerificationOutcome
    applied: Recommendation
    report: Optional[SynthesisReport] = None

    @property
    def successful(self) -> bool:
        return self.verification.kind == "Pass"


# --- catalog loading ---

_FRONT_RE = re.compile(r"\A---\n(.*?)\n---\n(.*)\Z", re.DOTALL)
_SNIPPET_RE = re.compile(r"```(?:verilog)?\n(.*?)```", re.DOTALL)


def _parse_card(text: str, origin: str) -> TechniqueCard:
    m = _FRONT_RE.match(text)
    if not m:
        raise MalformedCard(f"{origin}: missing front-matter")
    try:
        meta = safe_load(m.group(1))
    except yaml.YAMLError as exc:
        raise MalformedCard(f"{origin}: bad front-matter: {exc}") from exc
    if not isinstance(meta, dict):
        raise MalformedCard(f"{origin}: front-matter is not a mapping")
    body = m.group(2)
    sm = _SNIPPET_RE.search(body)
    if not sm or not sm.group(1).strip():
        raise MalformedCard(f"{origin}: missing Verilog snippet")
    summary = _SNIPPET_RE.sub("", body).strip()
    if not summary:
        raise MalformedCard(f"{origin}: missing summary text")
    try:
        card = TechniqueCard(
            id=meta["id"],
            goal=meta["goal"],
            summary=summary,
            applicability=list(meta["predicates"]),
            example_snippet=sm.group(1).strip(),
            caveats=meta.get("caveats", ""),
            boosts=list(meta.get("boost", [])),
            aliases=list(meta.get("aliases", [])),
        )
    except KeyError as exc:
        raise MalformedCard(f"{origin}: missing field {exc}") from exc
    if card.goal not in GOALS:
        raise MalformedCard(f"{origin}: unknown goal {card.goal!r}")
    if not card.applicability:
        raise MalformedCard(f"{origin}: needs at least one predicate")
    return card


class Catalog:
    def __init__(self, cards: list[TechniqueCard]):
        self.cards: dict[str, TechniqueCard] = {}
        for card in cards:
            if card.id in self.cards:
                raise DuplicateId(card.id)
            self.cards[card.id] = card

    def __len__(self):
        return len(self.cards)

    def __contains__(self, card_id):
        return card_id in self.cards

    def __getitem__(self, card_id) -> TechniqueCard:
        return self.cards[card_id]

    def for_goal(self, goal: str) -> list[TechniqueCard]:
        return sorted(
            (c for c in self.cards.values() if c.goal == goal), key=lambda c: c.id
        )

    def check_required(self) -> None:
        for goal, names in REQUIRED_TECHNIQUES.items():
            covered = set()
            for card in self.for_goal(goal):
                covered.add(card.id)
                covered.update(card.aliases)
            missing = set(names) - covered
            if missing:
                raise MissingRequiredTechnique(f"{goal}: {sorted(missing)}")


def load_catalog(card_dir: Optional[str | Path] = None) -> Catalog:
    """Load all *.md cards from a directory (default: bundled catalog)."""
    cards = []
    if card_dir is None:
        root = resources.files("rtlflow").joinpath("cards")
        entries = sorted(root.iterdir(), key=lambda p: p.name)
        for entry in entries:
            if entry.name.endswith(".md"):
                cards.append(_parse_card(entry.read_text(), entry.name))
    else:
        paths = sorted(Path(card_dir).glob("*.md"))
        if not paths:
            raise MalformedCard(f"no card files in {card_dir}")
        for path in paths:
            cards.append(_parse_card(path.read_text(), path.name))
    catalog = Catalog(cards)
    catalog.check_required()
    return catalog


# --- predicate evaluation ---

_PRED_RE = re.compile(
    r"^\s*(not\s+)?([a-z_]\w*)\s*(?:(>=|<=|>|<|==)\s*(-?[\d.]+))?\s*$"
)


def _context(fp: DesignFingerprint, report: Optional[SynthesisReport]) -> dict:
    ctx: dict[str, float | bool] = {
        "is_combinational": fp.is_combinational,
        "clocked_always": fp.clocked_always,
        "comb_always": fp.comb_always,
        "async_reset": fp.reset_style == "Async",
        "sync_reset": fp.reset_style == "Sync",
        "fsm_detected": fp.fsm_detected,
        "register_bits": fp.register_bits,
        "carry_chain_detected": fp.carry_chain_detected,
        "pipeline_stages": fp.pipeline_stages,
        "max_instance_count": max(fp.instance_groups.values(), default=0),
        "total_instances": sum(fp.instance_groups.values()),
    }
    for op, count in fp.operator_census.items():
        ctx[f"{op}_ops"] = count
    if report is not None:
        for name, value in report.metrics.to_dict().items():
            if value is not None:
                ctx[name] = value
    return ctx


def eval_predicate(pred: str, ctx: dict) -> bool:
    """Evaluate one predicate string; unknown or absent names are False."""
    m = _PRED_RE.match(pred)
    if not m:
        raise MalformedCard(f"unparseable predicate: {pred!r}")
    negate, name, op, num = m.groups()
    value = ctx.get(name)
    if value is None:
        result = False
    elif op is None:
        result = bool(value)
    else:
        rhs = float(num)
        result = {
            ">": value > rhs, ">=": value >= rhs,
            "<": value < rhs, "<=": value <= rhs,
            "==": value == rhs,
        }[op]
    return (not result) if negate else result


def select_techniques(
    fp: DesignFingerprint,
    report: Optional[SynthesisReport],
    goal: OptimizationGoal,
    catalog: Catalog,
) -> Recommendation:
    """Rank the goal's cards by satisfied-predicate count, then by report
    boost signals, then by id; keep at most two."""
    ctx = _context(fp, report)
    scored = []
    evidence: dict[str, list[str]] = {}
    for card in catalog.for_goal(goal.kind):
        hits = [p for p in card.applicability if eval_predicate(p, ctx)]
        if not hits:
            continue
        boost_hits = [b for b in card.boosts if eval_predicate(b, ctx)]
        scored.append((len(hits) + len(boost_hits), card.id))
        evidence[card.id] = hits + boost_hits
    scored.sort(key=lambda t: (-t[0], t[1]))
    chosen = [card_id for _, card_id in scored[:MAX_TECHNIQUES_PER_PASS]]
    if not chosen:
        fallback = catalog.for_goal(goal.kind)[0]
        log.warning(
            "no applicable %s technique; falling back to %s", goal.kind, fallback.id
        )
        return Recommendation(
            goal=goal,
            techniques=[fallback.id],
            rationale=f"{fallback.id}: goal default (no predicate matched)",
        )
    rationale = "; ".join(
        f"{card_id}: triggered by {', '.join(evidence[card_id])}" for card_id in chosen
    )
    return Recommendation(goal=goal, techniques=chosen, rationale=rationale)


# --- prompt assembly ---

def build_icl_prompt(
    rec: Recommendation,
    baseline: RtlArtifact,
    report: SynthesisReport,
    catalog: Catalog,
    char_budget: int = DEFAULT_PROMPT_BUDGET,
) -> list[ChatMessage]:
    """System message carries the recommended cards only; user message
    carries baseline code, the canonical report and the goal directive.
    Card snippets are the only truncatable content."""
    for card_id in rec.techniques:
        if card_id not in catalog:
            raise KeyError(f"recommendation references unknown card {card_id}")

    directive = render_prompt("optimizer")
    report_text = emit_canonical(report.metrics)
    user_text = (
        "Baseline Verilog module:\n```verilog\n"
        + baseline.verilog_text.rstrip()
        + "\n```\n\nSynthesis report of the baseline:\n"
        + report_text
        + f"\nGoal: produce a {rec.goal.kind}-optimized variant applying the "
        + "recommended techniques above.\n"
    )

    def card_block(card: TechniqueCard, snippet: str) -> str:
        block = f"### Technique: {card.id}\n{card.summary}\n"
        if card.caveats:
            block += f"Trade-offs: {card.caveats}\n"
        if snippet:
            block += f"Example:\n```verilog\n{snippet}\n```\n"
        return block

    cards = [catalog[cid] for cid in rec.techniques]
    snippets = [c.example_snippet for c in cards]

    def assemble(snips: list[str]) -> str:
        return (
            directive
            + "\nRecommended techniques:\n\n"
            + "\n".join(card_block(c, s) for c, s in zip(cards, snips))
        )

    total = len(assemble(snippets)) + len(user_text)
    if total > char_budget:
        # snippets are truncated last (and are the only thing truncated)
        overhead = len(assemble([""] * len(cards))) + len(user_text)
        room = char_budget - overhead
        if room < _MIN_SNIPPET * len(cards):
            raise PromptOverBudget(
                f"prompt needs {overhead} chars before snippets; budget {char_budget}"
            )
        per_card = room // len(cards)
        snippets = [s[:per_card] for s in snippets]
    return [system(assemble(snippets)), user(user_text)]


# --- optimization pass ---

def optimize(
    baseline: RtlArtifact,
    report: SynthesisReport,
    goal: OptimizationGoal,
    gateway: Gateway,
    toolchain,
    budget: PipelineBudget,
    testbench_path: str | Path,
    workspace: str | Path,
    catalog: Optional[Catalog] = None,
    char_budget: int = DEFAULT_PROMPT_BUDGET,
) -> OptimizedVariant:
    """Generate one goal-optimized variant and re-verify it against the
    same golden testbench through the fix loop, persisting its revisions in
    `workspace`; functionality must not regress."""
    catalog = catalog or load_catalog()
    workspace = Path(workspace)
    workspace.mkdir(parents=True, exist_ok=True)
    if not Path(testbench_path).exists():
        raise FileNotFoundError(f"testbench missing: {testbench_path}")

    fp = fingerprint(baseline.verilog_text)
    rec = select_techniques(fp, report, goal, catalog)
    messages = build_icl_prompt(rec, baseline, report, catalog, char_budget)

    session = gateway.session("Optimizer", system_prompt=messages[0].content)
    rtl = artifact_from_reply(session.send(messages[1]).content, 0)
    revisions, final = fix_loop(rtl, testbench_path, gateway, toolchain, budget, workspace)
    if final != "Pass":
        raise FunctionalRegressionUnrecoverable(
            f"{goal.kind} variant never passed: {final} after {len(revisions)} verification(s)"
        )
    last = revisions[-1]
    return OptimizedVariant(goal=goal, rtl=last.rtl, verification=last.outcome, applied=rec)
