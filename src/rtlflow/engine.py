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
from functools import cache
from pathlib import Path
from typing import Optional, TextIO

from .errors import (
    NoCodeBlock,
    UnparseableDiagnosis,
    UnparseablePlan,
    UnparseableReview,
    read_input,
)
from .gateway import Gateway
from .prompts import render_prompt
from .toolchain import VerificationOutcome

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

    def __post_init__(self):
        for key in ("name", "description", "module_name", "testbench_path"):
            if not isinstance(getattr(self, key), str):
                raise ValueError(f"{key} must be a string, got {getattr(self, key)!r}")
        if not self.ports:
            raise ValueError("spec needs at least one port")
        names = [p.name for p in self.ports]
        if len(names) != len(set(names)):
            raise ValueError("port names must be unique")
        for p in self.ports:
            if type(p.width) is not int or p.width < 1:
                raise ValueError(f"port {p.name} needs an integer width >= 1, got {p.width!r}")
            if p.direction not in ("in", "out", "inout"):
                raise ValueError(f"port {p.name} has bad direction {p.direction!r}")

    def port_table(self) -> str:
        return "\n".join(
            f"- {p.name}: {p.direction}, width {p.width}" for p in self.ports
        )

    @classmethod
    def from_json(cls, path: str | Path) -> "DesignSpec":
        """Load a spec file; keys other than the fields are ignored, and a
        bad file is a BadInput."""
        def parse(text: str) -> "DesignSpec":
            d = json.loads(text)
            if not isinstance(d, dict):
                raise ValueError(f"spec must be a JSON object, got {type(d).__name__}")
            if not isinstance(d["ports"], list):
                raise ValueError(f"ports must be a list, got {d['ports']!r}")
            for p in d["ports"]:
                if not isinstance(p, dict):
                    raise ValueError(f"bad port {p!r}: not a mapping")
            spec = cls(
                name=d["name"],
                description=d["description"],
                module_name=d["module_name"],
                ports=[Port(**p) for p in d["ports"]],
                testbench_path=d["testbench_path"],
            )
            if spec.testbench_path and not Path(spec.testbench_path).is_absolute():
                spec.testbench_path = str((Path(path).parent / spec.testbench_path).resolve())
            return spec

        return read_input(path, parse)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ImplementationPlan:
    steps: list[str]  # step k is steps[k - 1]

    def __post_init__(self):
        if not self.steps:
            raise ValueError("plan needs at least one step")

    def as_text(self) -> str:
        return "\n".join(f"{i}. {t}" for i, t in enumerate(self.steps, 1))

    @property
    def indices(self) -> list[int]:
        return list(range(1, len(self.steps) + 1))


@dataclass
class RtlArtifact:
    verilog_text: str
    step_tags: set[int] = field(default_factory=set)
    fix_tags: set[int] = field(default_factory=set)
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
class FixDiagnosis:
    fixes: list[str]  # fix k is fixes[k - 1]

    def __post_init__(self):
        if not self.fixes:
            raise ValueError("a diagnosis must contain at least one fix")

    def as_text(self) -> str:
        return "\n".join(f"{i}. {f}" for i, f in enumerate(self.fixes, 1))

    def to_dict(self) -> dict:
        return {"fixes": [{"description": f} for f in self.fixes]}


@dataclass
class PipelineBudget:
    max_fix_iterations: int = 5
    max_review_rounds: int = 2

    def __post_init__(self):
        for name in ("max_fix_iterations", "max_review_rounds"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass
class Revision:
    rtl: RtlArtifact
    outcome: VerificationOutcome


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


def extract_tags(verilog: str, kind: str) -> set[int]:
    """Indices k of the `// STEP k:` / `// FIX k:` comments; only the first
    tag on a line counts."""
    tag_re = _tag_re(kind)
    return {int(m.group(1)) for line in verilog.splitlines() if (m := tag_re.search(line))}


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

def make_plan(spec: DesignSpec, gateway: Gateway) -> ImplementationPlan:
    prompt = render_prompt(
        "planner",
        name=spec.name,
        description=spec.description,
        module_name=spec.module_name,
        ports=spec.port_table(),
    )
    items = parse_numbered_list(gateway.session("Planner").send(prompt))
    if not items:
        raise UnparseablePlan("planner reply has no numbered steps")
    return ImplementationPlan(items)


def _note_missing_steps(plan: ImplementationPlan, artifact: RtlArtifact) -> RtlArtifact:
    """Note the plan steps the artifact carries no STEP tag for."""
    missing = set(plan.indices) - artifact.step_tags
    if missing:
        note = f"MissingStepTags: {sorted(missing)}"
        artifact.notes.append(note)
        log.warning("%s", note)
    return artifact


def write_rtl(plan: ImplementationPlan, spec: DesignSpec, gateway: Gateway) -> RtlArtifact:
    prompt = render_prompt(
        "programmer",
        module_name=spec.module_name,
        ports=spec.port_table(),
        plan=plan.as_text(),
    )
    reply = gateway.session("Programmer").send(prompt)
    return _note_missing_steps(plan, artifact_from_reply(reply, 0))


def review_rtl(plan: ImplementationPlan, rtl: RtlArtifact, gateway: Gateway) -> ReviewVerdict:
    prompt = render_prompt("reviewer", plan=plan.as_text(), code=rtl.verilog_text)
    reply = gateway.session("Reviewer").send(prompt)
    per_step: dict[int, StepReview] = {}
    valid = set(plan.indices)
    for line in reply.splitlines():
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
    gateway: Gateway,
) -> FixDiagnosis:
    if outcome.kind not in ("SyntaxFail", "FunctionalFail"):
        raise ValueError(f"diagnose called on outcome {outcome.kind}")
    error_log = "\n".join(
        [d.raw for d in outcome.diagnostics] + list(outcome.failing_checks)
    ) or "(no captured log lines)"
    prompt = render_prompt(
        "evaluator", code=rtl.verilog_text, errors=error_log, testbench=testbench_text
    )
    items = parse_numbered_list(gateway.session("Evaluator").send(prompt))
    if not items:
        raise UnparseableDiagnosis("evaluator reply has no numbered fixes")
    return FixDiagnosis(fixes=items)


def apply_fixes(rtl: RtlArtifact, diagnosis: FixDiagnosis, gateway: Gateway) -> RtlArtifact:
    prompt = render_prompt("fixer", code=rtl.verilog_text, fixes=diagnosis.as_text())
    fixed = artifact_from_reply(gateway.session("Programmer").send(prompt), rtl.revision + 1)
    if len(fixed.fix_tags) < len(diagnosis.fixes):
        fixed.notes.append(
            f"MissingFixTags: got {sorted(fixed.fix_tags)}, expected {len(diagnosis.fixes)}"
        )
    if len(fixed.step_tags) < len(rtl.step_tags):
        fixed.notes.append("MissingStepTags: rewrite dropped step tags")
    return fixed


# --- pipeline ---

def write_json(path: Path, obj) -> None:
    """Write `obj` as indented UTF-8 JSON: `spec.json` and every `status.json`."""
    path.write_text(json.dumps(obj, ensure_ascii=False, indent=2, default=str), encoding="utf-8")


def _event(events: TextIO, event: str, revision: int, /, **fields) -> None:
    """Append one record to the run's `events.jsonl` as a compact JSON line
    and flush it, so a crash leaves every earlier record on disk."""
    events.write(json.dumps({"event": event, "revision": revision, **fields},
                            ensure_ascii=False, separators=(",", ":")) + "\n")
    events.flush()


def _review_loop(plan, gateway, budget, events, rtl):
    """Review; on incompleteness, route the missing list back to the
    Programmer up to max_review_rounds times. Returns the artifact to verify."""
    for round_no in range(1, budget.max_review_rounds + 1):
        verdict = review_rtl(plan, rtl, gateway)
        _event(events, "verdict", rtl.revision, round=round_no, **asdict(verdict))
        if verdict.complete:
            return rtl
        if round_no >= budget.max_review_rounds:
            break
        prompt = render_prompt(
            "reprogrammer",
            code=rtl.verilog_text,
            missing="\n".join(f"{i}. {plan.steps[i - 1]}" for i in verdict.missing),
            plan=plan.as_text(),
        )
        reply = gateway.session("Programmer").send(prompt)
        rtl = _note_missing_steps(plan, artifact_from_reply(reply, rtl.revision))
    log.warning("review never converged after %d rounds; proceeding", budget.max_review_rounds)
    return rtl


def fix_loop(
    rtl: RtlArtifact,
    tb_path: str | Path,
    tb_text: str,
    gateway: Gateway,
    toolchain,
    budget: PipelineBudget,
    workspace: Path,
    events: TextIO,
    plan: Optional[ImplementationPlan] = None,
) -> tuple[list[Revision], str]:
    """Review against `plan` (when given), verify against the testbench at
    `tb_path` (whose text is `tb_text`), then diagnose and fix, until the
    candidate passes, the toolchain errors, or `revision >= max_fix_iterations`.

    Writes `rev_N.v` and `verify_N/` into `workspace` per revision N, and
    appends to `events` (the caller's open `events.jsonl`) a `notes` event
    when revision N's artifact has notes, its `outcome` event and, when a
    fix follows, its `diagnosis` event. Returns the revisions and the final
    status: Pass, ToolError or BudgetExhausted."""
    tb_path = Path(tb_path)
    revisions: list[Revision] = []
    while True:
        rev = rtl.revision
        if plan is not None:
            rtl = _review_loop(plan, gateway, budget, events, rtl)
        rtl_path = workspace / f"rev_{rev}.v"
        rtl_path.write_text(rtl.verilog_text, encoding="utf-8")
        if rtl.notes:
            _event(events, "notes", rev, notes=rtl.notes)
        outcome = toolchain.verify(rtl_path, tb_path, workspace / f"verify_{rev}")
        _event(events, "outcome", rev, **outcome.to_dict())
        revisions.append(Revision(rtl=rtl, outcome=outcome))
        if outcome.kind in ("Pass", "ToolError"):
            return revisions, outcome.kind
        if rev >= budget.max_fix_iterations:
            return revisions, "BudgetExhausted"

        diagnosis = diagnose_failures(rtl, outcome, tb_text, gateway)
        _event(events, "diagnosis", rev, **diagnosis.to_dict())
        rtl = apply_fixes(rtl, diagnosis, gateway)


def run_pipeline(
    spec: DesignSpec,
    budget: PipelineBudget,
    gateway: Gateway,
    toolchain,
    workspace: str | Path,
) -> tuple[list[Revision], str]:
    """Plan, program, then run `fix_loop` with review in `workspace`; writes
    `spec.json` and `status.json` there and returns what `fix_loop` returns."""
    workspace = Path(workspace)
    workspace.mkdir(parents=True, exist_ok=True)
    tb_path = Path(spec.testbench_path)
    tb_text = read_input(tb_path)  # a bad testbench fails the run before the first LLM call

    write_json(workspace / "spec.json", spec.to_dict())

    with (workspace / "events.jsonl").open("a", encoding="utf-8") as events:
        plan = make_plan(spec, gateway)
        _event(events, "plan", 0, steps=plan.steps)
        rtl = write_rtl(plan, spec, gateway)
        revisions, final = fix_loop(
            rtl, tb_path, tb_text, gateway, toolchain, budget, workspace, events, plan
        )
    write_json(
        workspace / "status.json",
        {
            "design": spec.name,
            "final_status": final,
            "iterations_used": len(revisions),
            "revisions": [r.rtl.revision for r in revisions],
        },
    )
    return revisions, final
