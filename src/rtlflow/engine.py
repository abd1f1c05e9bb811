"""Plan -> program -> review -> verify -> diagnose -> fix loop.

Drives the per-role sessions until the candidate passes its golden
testbench or the iteration budget runs out, persisting every intermediate
artifact to the run workspace.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field, asdict
from functools import cache, partial
from pathlib import Path
from typing import Callable, Optional

from .errors import (
    InvalidBudget,
    NoCodeBlock,
    UnparseableDiagnosis,
    UnparseablePlan,
    UnparseableReview,
)
from .gateway import Gateway, RoleSession, user
from .prompts import render_prompt
from .toolchain import DiagnosticRecord, VerificationOutcome

log = logging.getLogger(__name__)


# --- domain types ---

@dataclass
class Port:
    name: str
    direction: str  # in | out | inout
    width: int = 1


@dataclass
class DesignSpec:
    name: str
    description: str
    module_name: str
    ports: list[Port]
    testbench_path: str
    clocked: Optional[bool] = None

    def __post_init__(self):
        if not self.ports:
            raise ValueError("spec needs at least one port")
        names = [p.name for p in self.ports]
        if len(names) != len(set(names)):
            raise ValueError("port names must be unique")
        for p in self.ports:
            if p.width < 1:
                raise ValueError(f"port {p.name} has width < 1")
            if p.direction not in ("in", "out", "inout"):
                raise ValueError(f"port {p.name} has bad direction {p.direction!r}")

    def port_table(self) -> str:
        return "\n".join(
            f"- {p.name}: {p.direction}, width {p.width}" for p in self.ports
        )

    @classmethod
    def from_json(cls, path: str | Path) -> "DesignSpec":
        d = json.loads(Path(path).read_text())
        base = Path(path).parent
        tb = d["testbench_path"]
        if tb and not Path(tb).is_absolute():
            tb = str((base / tb).resolve())
        return cls(
            name=d["name"],
            description=d["description"],
            module_name=d["module_name"],
            ports=[Port(**p) for p in d["ports"]],
            testbench_path=tb,
            clocked=d.get("clocked"),
        )

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class PlanStep:
    index: int
    text: str


@dataclass
class ImplementationPlan:
    steps: list[PlanStep]

    def __post_init__(self):
        if not self.steps:
            raise ValueError("plan needs at least one step")
        if [s.index for s in self.steps] != list(range(1, len(self.steps) + 1)):
            raise ValueError("step indices must be contiguous 1..N")

    def as_text(self) -> str:
        return "\n".join(f"{s.index}. {s.text}" for s in self.steps)

    @property
    def indices(self) -> list[int]:
        return [s.index for s in self.steps]


@dataclass
class RtlArtifact:
    verilog_text: str
    step_tags: dict[int, tuple[int, int]] = field(default_factory=dict)
    fix_tags: dict[int, tuple[int, int]] = field(default_factory=dict)
    revision: int = 0
    notes: list[str] = field(default_factory=list)


@dataclass
class StepReview:
    status: str  # Implemented | Missing
    evidence: str = ""


@dataclass
class ReviewVerdict:
    per_step: dict[int, StepReview]
    complete: bool

    @property
    def missing(self) -> list[int]:
        return sorted(i for i, r in self.per_step.items() if r.status == "Missing")


@dataclass
class Fix:
    description: str
    target_hint: str = ""


@dataclass
class FixDiagnosis:
    fixes: list[Fix]
    source_errors: list[DiagnosticRecord]

    def __post_init__(self):
        if not self.fixes:
            raise ValueError("a diagnosis must contain at least one fix")

    def as_text(self) -> str:
        return "\n".join(f"{i}. {f.description}" for i, f in enumerate(self.fixes, 1))

    def to_dict(self) -> dict:
        return {
            "fixes": [asdict(f) for f in self.fixes],
            "source_errors": [e.to_dict() for e in self.source_errors],
        }


@dataclass
class PipelineBudget:
    max_fix_iterations: int = 5
    max_review_rounds: int = 2

    def __post_init__(self):
        if self.max_fix_iterations < 1 or self.max_review_rounds < 1:
            raise InvalidBudget("budget values must be >= 1")


@dataclass
class Revision:
    rtl: RtlArtifact
    verdict: Optional[ReviewVerdict]  # None when the loop runs without review
    outcome: VerificationOutcome
    diagnosis: Optional[FixDiagnosis] = None


@dataclass
class PipelineTranscript:
    spec: DesignSpec
    plan: ImplementationPlan
    revisions: list[Revision]
    final_status: str  # Pass | ToolError | BudgetExhausted
    iterations_used: int


# --- reply parsers ---

_NUMBERED_RE = re.compile(r"^\s*(?:[-*]\s*)?(\d+)[\.\):]\s+(.*\S)\s*$")


def parse_numbered_list(text: str) -> list[str]:
    """Pull out numbered lines in order; numbering gaps are tolerated and
    the result is renumbered contiguously by the caller."""
    items = []
    for line in text.splitlines():
        m = _NUMBERED_RE.match(line)
        if m:
            items.append(m.group(2).strip())
    return items


_FENCE_RE = re.compile(r"```(?:[a-zA-Z]*)\n(.*?)```", re.DOTALL)
_MODULE_RE = re.compile(r"\bmodule\b")


def extract_verilog(text: str) -> str:
    """Prefer a fenced block containing a module; fall back to the raw
    module..endmodule span."""
    for block in _FENCE_RE.findall(text):
        if _MODULE_RE.search(block):
            return block.strip() + "\n"
    m = _MODULE_RE.search(text)
    if m:
        end = text.rfind("endmodule")
        if end > m.start():
            return text[m.start(): end + len("endmodule")].strip() + "\n"
    raise NoCodeBlock("reply contains no Verilog module")


@cache
def _tag_re(kind: str) -> re.Pattern:
    return re.compile(rf"//\s*{kind}\s+(\d+)\s*:", re.IGNORECASE)


def extract_tags(verilog: str, kind: str) -> dict[int, tuple[int, int]]:
    """Map `// STEP k:` / `// FIX k:` comments to 1-based line ranges.
    A tag's range runs to the line before the next tag of the same kind."""
    tag_re = _tag_re(kind)
    lines = verilog.splitlines()
    starts: list[tuple[int, int]] = []  # (line_no, tag_index)
    for lineno, line in enumerate(lines, 1):
        m = tag_re.search(line)
        if m:
            starts.append((lineno, int(m.group(1))))
    tags: dict[int, tuple[int, int]] = {}
    for i, (lineno, idx) in enumerate(starts):
        end = starts[i + 1][0] - 1 if i + 1 < len(starts) else len(lines)
        tags[idx] = (lineno, end)
    return tags


def artifact_from_reply(text: str, revision: int) -> RtlArtifact:
    """The one path from an LLM reply to an artifact: its Verilog plus the
    STEP and FIX tags found in it."""
    code = extract_verilog(text)
    return RtlArtifact(
        verilog_text=code,
        step_tags=extract_tags(code, "STEP"),
        fix_tags=extract_tags(code, "FIX"),
        revision=revision,
    )


_REVIEW_RE = re.compile(
    r"^\s*(?:[-*]\s*)?STEP\s+(\d+)\s*:\s*(IMPLEMENTED|MISSING)\b[\s:\-]*(.*)$",
    re.IGNORECASE,
)


# --- role operations ---

def make_plan(spec: DesignSpec, session: RoleSession) -> ImplementationPlan:
    assert session.role_name == "Planner"
    prompt = render_prompt(
        "planner",
        name=spec.name,
        description=spec.description,
        module_name=spec.module_name,
        ports=spec.port_table(),
    )
    reply = session.send(user(prompt))
    items = parse_numbered_list(reply.content)
    if not items:
        raise UnparseablePlan("planner reply has no numbered steps")
    return ImplementationPlan([PlanStep(i, t) for i, t in enumerate(items, 1)])


def _note_missing_steps(plan: ImplementationPlan, artifact: RtlArtifact) -> RtlArtifact:
    """Note the plan steps the artifact carries no STEP tag for."""
    missing = set(plan.indices) - set(artifact.step_tags)
    if missing:
        note = f"MissingStepTags: {sorted(missing)}"
        artifact.notes.append(note)
        log.warning("%s", note)
    return artifact


def write_rtl(plan: ImplementationPlan, spec: DesignSpec, session: RoleSession) -> RtlArtifact:
    assert session.role_name == "Programmer"
    prompt = render_prompt(
        "programmer",
        module_name=spec.module_name,
        ports=spec.port_table(),
        plan=plan.as_text(),
    )
    return _note_missing_steps(plan, artifact_from_reply(session.send(user(prompt)).content, 0))


def review_rtl(plan: ImplementationPlan, rtl: RtlArtifact, session: RoleSession) -> ReviewVerdict:
    assert session.role_name == "Reviewer"
    prompt = render_prompt("reviewer", plan=plan.as_text(), code=rtl.verilog_text)
    reply = session.send(user(prompt))
    per_step: dict[int, StepReview] = {}
    valid = set(plan.indices)
    for line in reply.content.splitlines():
        m = _REVIEW_RE.match(line)
        if not m:
            continue
        idx = int(m.group(1))
        if idx not in valid:
            raise UnparseableReview(f"review cites step {idx} outside the plan")
        status = "Implemented" if m.group(2).upper() == "IMPLEMENTED" else "Missing"
        per_step[idx] = StepReview(status, m.group(3).strip())
    if set(per_step) != valid:
        raise UnparseableReview(
            f"review covers steps {sorted(per_step)}, plan has {sorted(valid)}"
        )
    # aggregate flag is always recomputed, never taken from the reply
    complete = all(r.status == "Implemented" for r in per_step.values())
    return ReviewVerdict(per_step=per_step, complete=complete)


def diagnose_failures(
    rtl: RtlArtifact,
    outcome: VerificationOutcome,
    testbench_text: str,
    session: RoleSession,
) -> FixDiagnosis:
    assert session.role_name == "Evaluator"
    if outcome.kind not in ("SyntaxFail", "FunctionalFail"):
        raise ValueError(f"diagnose called on outcome {outcome.kind}")
    error_log = "\n".join(
        [d.raw for d in outcome.diagnostics] + list(outcome.failing_checks)
    ) or "(no captured log lines)"
    prompt = render_prompt(
        "evaluator", code=rtl.verilog_text, errors=error_log, testbench=testbench_text
    )
    reply = session.send(user(prompt))
    items = parse_numbered_list(reply.content)
    if not items:
        raise UnparseableDiagnosis("evaluator reply has no numbered fixes")
    return FixDiagnosis(
        fixes=[Fix(description=t) for t in items],
        source_errors=list(outcome.diagnostics),
    )


def apply_fixes(rtl: RtlArtifact, diagnosis: FixDiagnosis, session: RoleSession) -> RtlArtifact:
    assert session.role_name == "Programmer"
    prompt = render_prompt("fixer", code=rtl.verilog_text, fixes=diagnosis.as_text())
    fixed = artifact_from_reply(session.send(user(prompt)).content, rtl.revision + 1)
    if len(fixed.fix_tags) < len(diagnosis.fixes):
        fixed.notes.append(
            f"MissingFixTags: got {sorted(fixed.fix_tags)}, expected {len(diagnosis.fixes)}"
        )
    if len(fixed.step_tags) < len(rtl.step_tags):
        fixed.notes.append("MissingStepTags: rewrite dropped step tags")
    return fixed


# --- pipeline ---

def _dump(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, ensure_ascii=False, indent=2, default=str))


def _review_loop(plan, gateway, budget, workspace, rtl):
    """Review; on incompleteness, route the missing list back to the
    Programmer up to max_review_rounds times."""
    verdict = None
    for round_no in range(budget.max_review_rounds):
        reviewer = gateway.session("Reviewer")
        verdict = review_rtl(plan, rtl, reviewer)
        _dump(workspace / f"verdict_{rtl.revision}.json", asdict(verdict))
        if verdict.complete:
            return rtl, verdict
        if round_no + 1 >= budget.max_review_rounds:
            break
        missing_steps = "\n".join(
            f"{s.index}. {s.text}" for s in plan.steps if s.index in verdict.missing
        )
        programmer = gateway.session("Programmer")
        prompt = render_prompt(
            "reprogrammer",
            code=rtl.verilog_text,
            missing=missing_steps,
            plan=plan.as_text(),
        )
        rtl = _note_missing_steps(
            plan, artifact_from_reply(programmer.send(user(prompt)).content, rtl.revision)
        )
    log.warning("review never converged after %d rounds; proceeding", budget.max_review_rounds)
    return rtl, verdict


def fix_loop(
    rtl: RtlArtifact,
    tb_path: str | Path,
    gateway: Gateway,
    toolchain,
    budget: PipelineBudget,
    workspace: Path,
    review: Optional[Callable[[RtlArtifact], tuple[RtlArtifact, ReviewVerdict]]] = None,
) -> tuple[list[Revision], str]:
    """Review (when given), verify, then diagnose and fix, until the candidate
    passes, the toolchain errors, or `revision >= max_fix_iterations`.

    Persists `rev_N.v`, `verify_N/`, `outcome_N.json` and `diagnosis_N.json`
    per revision N, and `notes_N.json` when revision N's artifact has notes.
    Returns the revisions and the final status: Pass,
    ToolError or BudgetExhausted."""
    tb_path = Path(tb_path)
    tb_text = tb_path.read_text()
    revisions: list[Revision] = []
    diagnosis: Optional[FixDiagnosis] = None
    while True:
        rev = rtl.revision
        verdict = None
        if review is not None:
            rtl, verdict = review(rtl)
        rtl_path = workspace / f"rev_{rev}.v"
        rtl_path.write_text(rtl.verilog_text)
        if rtl.notes:
            _dump(workspace / f"notes_{rev}.json", rtl.notes)
        outcome = toolchain.verify(rtl_path, tb_path, workspace / f"verify_{rev}")
        _dump(workspace / f"outcome_{rev}.json", outcome.to_dict())
        revisions.append(Revision(rtl=rtl, verdict=verdict, outcome=outcome, diagnosis=diagnosis))
        if outcome.kind in ("Pass", "ToolError"):
            return revisions, outcome.kind
        if rev >= budget.max_fix_iterations:
            return revisions, "BudgetExhausted"

        diagnosis = diagnose_failures(rtl, outcome, tb_text, gateway.session("Evaluator"))
        _dump(workspace / f"diagnosis_{rev}.json", diagnosis.to_dict())
        rtl = apply_fixes(rtl, diagnosis, gateway.session("Programmer"))


def run_pipeline(
    spec: DesignSpec,
    budget: PipelineBudget,
    gateway: Gateway,
    toolchain,
    workspace: str | Path,
) -> PipelineTranscript:
    workspace = Path(workspace)
    workspace.mkdir(parents=True, exist_ok=True)
    tb_path = Path(spec.testbench_path)
    if not tb_path.exists():
        raise FileNotFoundError(f"testbench missing: {tb_path}")

    _dump(workspace / "spec.json", spec.to_dict())

    planner = gateway.session("Planner")
    plan = make_plan(spec, planner)
    (workspace / "plan.txt").write_text(plan.as_text() + "\n")

    programmer = gateway.session("Programmer")
    rtl = write_rtl(plan, spec, programmer)

    revisions, final = fix_loop(
        rtl, tb_path, gateway, toolchain, budget, workspace,
        review=partial(_review_loop, plan, gateway, budget, workspace),
    )
    _dump(
        workspace / "status.json",
        {
            "design": spec.name,
            "final_status": final,
            "iterations_used": len(revisions),
            "revisions": [r.rtl.revision for r in revisions],
        },
    )
    return PipelineTranscript(
        spec=spec, plan=plan, revisions=revisions,
        final_status=final, iterations_used=len(revisions),
    )
