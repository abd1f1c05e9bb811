"""Technique knowledge base, goal-directed selection and ICL optimization.

Cards live as markdown files with YAML front-matter; applicability is a
small declarative predicate language over a closed vocabulary of design
facts and report metrics, so the selection logic stays data, auditable and
editable.
"""

from __future__ import annotations

import logging
import re
from dataclasses import asdict, dataclass, field
from importlib import resources
from pathlib import Path
from typing import Optional

import yaml

from .engine import (PipelineBudget, RtlArtifact, artifact_from_reply, fix_loop, loop_status,
                     run_log)
# not called here: kept because perfbench/trace.py wraps them as optimizer attributes
from .engine import apply_fixes, diagnose_failures, extract_tags, extract_verilog  # noqa: F401
from .errors import RtlflowError, build, read_input, safe_load
from .gateway import ChatMessage, Gateway, system, user
from .inspect_rtl import _OPERATORS, DesignFingerprint, fingerprint
from .metrics import ALL_FIELDS, NUMBER, PpaMetrics, emit_canonical
from .prompts import render_prompt
from .toolchain import VerificationOutcome

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


@dataclass
class OptimizationGoal:
    kind: str

    def __post_init__(self):
        if self.kind not in GOALS:
            raise ValueError(f"goal must be one of {GOALS}, got {self.kind!r}")


@dataclass
class TechniqueCard:
    """A card: its front-matter keys are the fields but `summary` and
    `example_snippet`, which are read from its body."""

    id: str
    goal: str
    summary: str
    predicates: list[str]
    example_snippet: str
    caveats: str = ""
    boost: list[str] = field(default_factory=list)
    aliases: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.goal not in GOALS:
            raise ValueError(f"unknown goal {self.goal!r}")
        if not self.summary:
            raise ValueError("missing summary text")
        if not self.example_snippet:
            raise ValueError("missing Verilog snippet")
        if not self.predicates:
            raise ValueError("needs at least one predicate")
        for pred in self.predicates + self.boost:
            m = _PRED_RE.match(pred)
            if not m:
                raise ValueError(f"unparseable predicate: {pred!r}")
            if m.group(2) not in VOCABULARY:
                raise ValueError(f"unknown name {m.group(2)!r} in predicate {pred!r}")


@dataclass
class Recommendation:
    goal: OptimizationGoal
    techniques: list[str]
    rationale: str


@dataclass
class OptimizedVariant:
    rtl: RtlArtifact
    verification: VerificationOutcome
    applied: Recommendation

    @property
    def successful(self) -> bool:
        return self.verification.kind == "Pass"


# --- catalog loading ---

_FRONT_RE = re.compile(r"\A---\n(.*?)\n---\n(.*)\Z", re.DOTALL)
_SNIPPET_RE = re.compile(r"```(?:verilog)?\n(.*?)```", re.DOTALL)
_PRED_RE = re.compile(rf"^\s*(not\s+)?([a-z_]\w*)\s*(?:(>=|<=|>|<|==)\s*({NUMBER}))?\s*$")

# the design facts a predicate may name, each read from the fingerprint: the
# signals the bundled cards read and the count of each census operator
_SIGNALS = {
    "is_combinational": lambda fp: fp.is_combinational,
    "clocked_always": lambda fp: fp.clocked_always,
    "fsm_detected": lambda fp: fp.fsm_detected,
    "register_bits": lambda fp: fp.register_bits,
    "carry_chain_detected": lambda fp: fp.carry_chain_detected,
    "pipeline_stages": lambda fp: fp.pipeline_stages,
    "max_instance_count": lambda fp: max(fp.instance_groups.values(), default=0),
    "total_instances": lambda fp: sum(fp.instance_groups.values()),
    **{f"{op}_ops": lambda fp, op=op: fp.operator_census.get(op, 0)
       for _, op in _OPERATORS if op},
}
# every name a card's predicate or boost may read
VOCABULARY = frozenset(_SIGNALS) | frozenset(ALL_FIELDS)


def _parse_card(text: str, origin: str) -> TechniqueCard:
    """Build a card from its text through `errors.build`; an error names `origin`."""
    m = _FRONT_RE.match(text)
    if not m:
        raise RtlflowError(f"{origin}: missing front-matter")
    sm = _SNIPPET_RE.search(m.group(2))
    try:
        return build(TechniqueCard, safe_load(m.group(1)),
                     summary=_SNIPPET_RE.sub("", m.group(2)).strip(),
                     example_snippet=sm.group(1).strip() if sm else "")
    except yaml.YAMLError as exc:
        raise RtlflowError(f"{origin}: bad front-matter: {exc}") from exc
    except ValueError as exc:
        raise RtlflowError(f"{origin}: {exc}") from exc


def load_catalog(card_dir: Optional[str | Path] = None) -> dict[str, TechniqueCard]:
    """Load all *.md cards, in name order, from a directory (default: the
    bundled catalog) and return them by id, in id order, once no two share
    an id and they cover REQUIRED_TECHNIQUES; an error names the card file
    or the directory."""
    root = resources.files("rtlflow") / "cards" if card_dir is None else Path(card_dir)
    entries = sorted(root.iterdir(), key=lambda e: e.name) if root.is_dir() else []
    cards = [_parse_card(read_input(e), str(e)) for e in entries if e.name.endswith(".md")]
    if not cards:
        raise RtlflowError(f"no card files in {root}")
    catalog: dict[str, TechniqueCard] = {}
    for card in cards:
        if catalog.setdefault(card.id, card) is not card:
            raise RtlflowError(f"two cards have id {card.id!r}")
    catalog = dict(sorted(catalog.items()))
    for goal, names in REQUIRED_TECHNIQUES.items():
        covered = {n for card in for_goal(catalog, goal) for n in (card.id, *card.aliases)}
        missing = set(names) - covered
        if missing:
            raise RtlflowError(f"no {goal} card covers {sorted(missing)}")
    return catalog


def for_goal(catalog: dict[str, TechniqueCard], goal: str) -> list[TechniqueCard]:
    return [card for card in catalog.values() if card.goal == goal]


# --- predicate evaluation ---

def _context(fp: DesignFingerprint, report: PpaMetrics) -> dict:
    """The value of each VOCABULARY name for one design and its report."""
    ctx = {name: read(fp) for name, read in _SIGNALS.items()}
    ctx.update(asdict(report))  # a metric the report lacks is None, which reads as False
    return ctx


def eval_predicate(pred: str, ctx: dict) -> bool:
    """Evaluate one predicate string; a name absent or None in `ctx` is False."""
    m = _PRED_RE.match(pred)
    if not m:
        raise RtlflowError(f"unparseable predicate: {pred!r}")
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
    report: PpaMetrics,
    goal: OptimizationGoal,
    catalog: dict[str, TechniqueCard],
) -> Recommendation:
    """Rank the goal's cards by satisfied-predicate count, then by report
    boost signals, then by id; keep at most two."""
    ctx = _context(fp, report)
    scored = []
    evidence: dict[str, list[str]] = {}
    for card in for_goal(catalog, goal.kind):
        hits = [p for p in card.predicates if eval_predicate(p, ctx)]
        if not hits:
            continue
        boost_hits = [b for b in card.boost if eval_predicate(b, ctx)]
        scored.append((len(hits) + len(boost_hits), card.id))
        evidence[card.id] = hits + boost_hits
    scored.sort(key=lambda t: (-t[0], t[1]))
    chosen = [card_id for _, card_id in scored[:MAX_TECHNIQUES_PER_PASS]]
    if not chosen:
        fallback = for_goal(catalog, goal.kind)[0]
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
    report: PpaMetrics,
    catalog: dict[str, TechniqueCard],
) -> list[ChatMessage]:
    """System message carries the recommended cards, each with its summary,
    trade-offs and example; user message carries baseline code, the
    canonical report and the goal directive. Nothing is cut."""
    blocks = []
    for cid in rec.techniques:
        card = catalog[cid]
        block = f"### Technique: {card.id}\n{card.summary}\n"
        if card.caveats:
            block += f"Trade-offs: {card.caveats}\n"
        blocks.append(block + f"Example:\n```verilog\n{card.example_snippet}\n```\n")
    system_text = render_prompt("optimizer") + "\nRecommended techniques:\n\n" + "\n".join(blocks)
    user_text = (
        "Baseline Verilog module:\n```verilog\n"
        + baseline.verilog_text.rstrip()
        + "\n```\n\nSynthesis report of the baseline:\n"
        + emit_canonical(report)
        + f"\nGoal: produce a {rec.goal.kind}-optimized variant applying the "
        + "recommended techniques above.\n"
    )
    return [system(system_text), user(user_text)]


# --- optimization pass ---

def optimize(
    baseline: RtlArtifact,
    report: PpaMetrics,
    goal: OptimizationGoal,
    gateway: Gateway,
    toolchain,
    budget: PipelineBudget,
    testbench_path: str | Path,
    workspace: str | Path,
    catalog: dict[str, TechniqueCard],
) -> OptimizedVariant:
    """Generate one goal-optimized variant and re-verify it against the
    same golden testbench through the fix loop, in a `run_log` over
    `workspace`; functionality must not regress. The status names the goal
    and, once they are chosen, the techniques and their rationale. A variant
    that never passes raises once the run has ended."""
    workspace = Path(workspace)
    status = {"goal": goal.kind}
    with run_log(workspace, gateway, status):
        tb_text = read_input(testbench_path)
        fp = fingerprint(baseline.verilog_text)
        rec = select_techniques(fp, report, goal, catalog)
        status.update(techniques=rec.techniques, rationale=rec.rationale)
        messages = build_icl_prompt(rec, baseline, report, catalog)

        session = gateway.session("Optimizer", system_prompt=messages[0].content)
        rtl = artifact_from_reply(session.send(messages[1].content), 0)
        revisions, final = fix_loop(
            rtl, testbench_path, tb_text, gateway, toolchain, budget, workspace
        )
        status.update(loop_status(revisions, final))
    if final != "Pass":
        raise RtlflowError(
            f"{goal.kind} variant never passed: {final} after {len(revisions)} verification(s)"
        )
    last = revisions[-1]
    return OptimizedVariant(rtl=last.rtl, verification=last.outcome, applied=rec)
