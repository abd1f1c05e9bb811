"""Plan -> program -> review -> verify -> diagnose -> fix loop.

Drives the per-role sessions until the candidate passes its golden
testbench or the iteration budget runs out, persisting every intermediate
artifact to the run workspace.
"""

from __future__ import annotations

import json
import logging
import re
import shutil
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, asdict
from functools import cache
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

from .errors import UnparseableReply, build, read_input
from .gateway import Gateway, RoleSession
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
        # the name is the design's workspace directory under a bench --out
        if self.name in ("", ".", "..") or "/" in self.name:
            raise ValueError(f"name must be one path component, got {self.name!r}")
        if not self.testbench_path:
            raise ValueError("testbench_path must not be empty")
        if not self.ports:
            raise ValueError("spec needs at least one port")
        names = [p.name for p in self.ports]
        for what, ident in [("module_name", self.module_name), *(("port name", n) for n in names)]:
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_$]*", ident):
                raise ValueError(f"{what} {ident!r} is not a Verilog identifier")
        if len(names) != len(set(names)):
            raise ValueError("port names must be unique")
        for p in self.ports:
            if p.width < 1:
                raise ValueError(f"port {p.name} needs a width >= 1, got {p.width!r}")
            if p.direction not in ("in", "out", "inout"):
                raise ValueError(f"port {p.name} has bad direction {p.direction!r}")

    def port_table(self) -> str:
        return "\n".join(
            f"- {p.name}: {p.direction}, width {p.width}" for p in self.ports
        )

    @classmethod
    def from_json(cls, path: str | Path) -> "DesignSpec":
        """Load a spec file through `errors.build`; a relative testbench path
        resolves against the file, and a bad file is a BadInput."""
        def parse(text: str) -> "DesignSpec":
            d = json.loads(text)
            # unknown keys are dropped, not rejected, until perfbench stops
            # writing `clocked` (ROADMAP.md item 1)
            if isinstance(d, dict):
                d = {k: v for k, v in d.items() if k in cls.__dataclass_fields__}
            spec = build(cls, d)
            if not Path(spec.testbench_path).is_absolute():
                spec.testbench_path = str((Path(path).parent / spec.testbench_path).resolve())
            return spec

        return read_input(path, parse)


@dataclass
class RtlArtifact:
    verilog_text: str
    step_tags: set[int] = field(default_factory=set)
    revision: int = 0
    notes: list[str] = field(default_factory=list)


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


def _numbered(texts: list[str], indices: Sequence[int] = ()) -> str:
    """One `k. texts[k - 1]` line per index k in `indices`, or in 1..N when
    none are given: how a plan, its missing steps and a diagnosis's fixes
    are put in a prompt."""
    return "\n".join(f"{k}. {texts[k - 1]}" for k in indices or range(1, len(texts) + 1))


_FENCE_RE = re.compile(r"```(?:[a-zA-Z]*)\n(.*?)```", re.DOTALL)
# a declaration `module <identifier>` leading a line: prose naming a module is not code
_MODULE_RE = re.compile(r"^[ \t]*module\s+[A-Za-z_]", re.MULTILINE)
_ENDMODULE_RE = re.compile(r"\bendmodule\b")


def extract_verilog(text: str) -> str:
    """Prefer a fenced block declaring a module; fall back to the raw span
    from the first module declaration to the first `endmodule` after the
    last declaration that one follows, so prose after the code is left out."""
    for block in _FENCE_RE.findall(text):
        if _MODULE_RE.search(block):
            return block.strip() + "\n"
    ends = [m.start() for m in _ENDMODULE_RE.finditer(text)]
    decls = list(_MODULE_RE.finditer(text, 0, ends[-1])) if ends else []
    if decls:
        end = _ENDMODULE_RE.search(text, decls[-1].end())
        return text[decls[0].start(): end.end()].strip() + "\n"
    raise UnparseableReply("reply contains no Verilog module")


@cache
def _tag_re(kind: str) -> re.Pattern:
    return re.compile(rf"//\s*{kind}\s+(\d+)\s*:", re.IGNORECASE)


def extract_tags(verilog: str, kind: str) -> set[int]:
    """Indices k of the `// STEP k:` / `// FIX k:` comments; only the first
    tag on a line counts."""
    tag_re = _tag_re(kind)
    return {int(m.group(1)) for line in verilog.splitlines() if (m := tag_re.search(line))}


def artifact_from_reply(text: str, revision: int, steps: Iterable[int] = (),
                        fixes: int = 0) -> RtlArtifact:
    """The one path from an LLM reply to an artifact, and the one place an
    artifact gets its notes: its Verilog, the STEP and FIX tags found in it,
    a `MissingStepTags: [k, ...]` note for the indices in `steps` it has no
    STEP tag for, and a `MissingFixTags: [k, ...]` note for the fixes
    1..`fixes` it has no FIX tag for; each note is logged."""
    code = extract_verilog(text)
    artifact = RtlArtifact(code, extract_tags(code, "STEP"), revision)
    for kind, asked, found in (("Step", set(steps), artifact.step_tags),
                               ("Fix", set(range(1, fixes + 1)), extract_tags(code, "FIX"))):
        if asked - found:
            artifact.notes.append(f"Missing{kind}Tags: {sorted(asked - found)}")
            log.warning("%s", artifact.notes[-1])
    return artifact


_REVIEW_RE = re.compile(
    r"^\s*(?:[-*]\s*)?STEP\s+(\d+)\s*:\s*(IMPLEMENTED|MISSING)\b[\s:\-]*(.*)$",
    re.IGNORECASE,
)


# --- role operations ---
# A plan is its step texts (step k is plan[k - 1]) and a diagnosis its fix
# texts (fix k is fixes[k - 1]); each is a non-empty list, as its parser
# rejects a reply with no numbered lines.

def make_plan(spec: DesignSpec, gateway: Gateway) -> list[str]:
    prompt = render_prompt(
        "planner",
        name=spec.name,
        description=spec.description,
        module_name=spec.module_name,
        ports=spec.port_table(),
    )
    items = parse_numbered_list(gateway.session("Planner").send(prompt))
    if not items:
        raise UnparseableReply("planner reply has no numbered steps")
    return items


def write_rtl(plan: list[str], spec: DesignSpec, gateway: Gateway) -> RtlArtifact:
    prompt = render_prompt(
        "programmer",
        module_name=spec.module_name,
        ports=spec.port_table(),
        plan=_numbered(plan),
    )
    reply = gateway.session("Programmer").send(prompt)
    return artifact_from_reply(reply, 0, range(1, len(plan) + 1))


def review_rtl(plan: list[str], rtl: RtlArtifact, gateway: Gateway) -> dict[int, dict]:
    """Each plan step's index mapped to its `{"status", "evidence"}`, with
    status `Implemented` or `Missing`, in the order the reply names them."""
    prompt = render_prompt("reviewer", plan=_numbered(plan), code=rtl.verilog_text)
    reply = gateway.session("Reviewer").send(prompt)
    per_step: dict[int, dict] = {}
    valid = set(range(1, len(plan) + 1))
    for line in reply.splitlines():
        m = _REVIEW_RE.match(line)
        if not m:
            continue
        idx = int(m.group(1))
        if idx not in valid:
            raise UnparseableReply(f"review cites step {idx} outside the plan")
        if idx in per_step:
            raise UnparseableReply(f"review names step {idx} twice")
        status = "Implemented" if m.group(2).upper() == "IMPLEMENTED" else "Missing"
        per_step[idx] = {"status": status, "evidence": m.group(3).strip()}
    if set(per_step) != valid:
        raise UnparseableReply(
            f"review covers steps {sorted(per_step)}, plan has {sorted(valid)}"
        )
    return per_step


# the most log lines an Evaluator prompt shows
_MAX_ERROR_LINES = 20


def _evaluator_prompt(rtl: RtlArtifact, outcome: VerificationOutcome, testbench_text: str) -> str:
    """The Evaluator's prompt. Its error log is the diagnostics' raw lines,
    then the failing checks, with warnings dropped when any error line is
    present, each non-blank line once, and past the first `_MAX_ERROR_LINES`
    one line that counts the rest; the outcome itself keeps every line."""
    if outcome.kind not in ("SyntaxFail", "FunctionalFail"):
        raise ValueError(f"diagnose called on outcome {outcome.kind}")
    errors = [d.raw for d in outcome.diagnostics if d.severity != "Warning"] + outcome.failing_checks
    # a raw may be a whole compile log that no pattern classified
    raws = errors or [d.raw for d in outcome.diagnostics]
    lines = list(dict.fromkeys(ln for raw in raws for ln in raw.splitlines() if ln.strip()))
    if len(lines) > _MAX_ERROR_LINES:
        lines[_MAX_ERROR_LINES:] = [f"({len(lines) - _MAX_ERROR_LINES} more error lines not shown)"]
    error_log = "\n".join(lines) or "(no captured log lines)"
    return render_prompt(
        "evaluator", code=rtl.verilog_text, errors=error_log, testbench=testbench_text
    )


def _parse_diagnosis(reply: str) -> list[str]:
    items = parse_numbered_list(reply)
    if not items:
        raise UnparseableReply("evaluator reply has no numbered fixes")
    return items


def diagnose_failures(
    rtl: RtlArtifact,
    outcome: VerificationOutcome,
    testbench_text: str,
    evaluator: RoleSession,
) -> list[str]:
    prompt = _evaluator_prompt(rtl, outcome, testbench_text)
    return _parse_diagnosis(evaluator.send(prompt))


def apply_fixes(rtl: RtlArtifact, fixes: list[str], gateway: Gateway) -> RtlArtifact:
    prompt = render_prompt("fixer", code=rtl.verilog_text, fixes=_numbered(fixes))
    reply = gateway.session("Programmer").send(prompt)
    # the fixer keeps every STEP tag, so the old revision's tags are asked for
    return artifact_from_reply(reply, rtl.revision + 1, rtl.step_tags, len(fixes))


# --- pipeline ---

def write_json(path: Path, obj) -> None:
    """Write `obj` as indented UTF-8 JSON: `spec.json` and every `status.json`."""
    path.write_text(json.dumps(obj, ensure_ascii=False, indent=2, default=str), encoding="utf-8")


@contextmanager
def run_log(workspace: Path, gateway: Gateway, status: dict) -> Iterator[None]:
    """The one start and end of a run: `run_pipeline`'s and `optimize`'s.

    Creates `workspace`, removes an earlier run's `rev_N.v` files, `verify_N/`
    directories and `status.json`, and starts the gateway's run afresh; one
    whose `events.jsonl` cannot be opened raises, having written nothing.
    The block puts how the run ended into `status`. When the block raises,
    `status` gains `final_status` `Error`, the exception's `error_type` and
    its message as `error`, and the exception is re-raised once the run has
    ended. At every end, `status` is appended as the `end` record, the last
    line of `events.jsonl`, and then written as `status.json`."""
    workspace.mkdir(parents=True, exist_ok=True)
    for path in workspace.iterdir():
        if re.fullmatch(r"rev_[0-9]+\.v|status\.json", path.name) and path.is_file():
            path.unlink()
        elif re.fullmatch(r"verify_[0-9]+", path.name) and path.is_dir():
            shutil.rmtree(path)

    def end() -> None:
        gateway.end(status)
        write_json(workspace / "status.json", status)

    try:
        gateway.start(workspace / "events.jsonl")
        yield
    except BaseException as exc:
        if gateway.started:
            status.update(final_status="Error", error_type=type(exc).__name__, error=str(exc))
            with suppress(OSError):  # e.g. a full disk: the run's own exception is raised
                end()
        raise
    end()


def loop_status(revisions: list[Revision], final: str) -> dict:
    """The `status` fields of a run that `fix_loop` ended."""
    return {"final_status": final, "iterations_used": len(revisions),
            "revisions": [r.rtl.revision for r in revisions]}


# a revision whose outcome is one of these gets no diagnosis
_FINAL_KINDS = ("Pass", "ToolError")


class _HeldWrites(list):
    """A transcript that holds each write's arguments, so a role called on
    the helper thread is written by the thread that owns the transcript."""

    def write(self, *args) -> None:
        self.append(args)


def _settle(future, gateway: Gateway,
            superseded: bool = False) -> tuple[VerificationOutcome, Optional[list[str]]]:
    """End a verify on the calling thread, the one writer of its events: wait
    for it, append its `outcome` event, then the Evaluator's held exchange
    to the transcript and, when `diagnose_failures` returned, a `diagnosis`
    event. A given-up (`superseded`) verify's outcome says so, and no fix
    follows it, so its diagnosis is neither recorded nor raised, only logged
    when it failed. Returns the outcome and the fixes a fix follows, or None,
    which ends the loop. The verify's exception is re-raised before the
    outcome event, the Evaluator's after its exchange."""
    rtl, outcome, diagnosis, held = future.result()
    gateway.event("outcome", revision=rtl.revision, **outcome.to_dict(),
                  **({"superseded": True} if superseded else {}))
    for write in held:
        gateway.write(*write)
    if isinstance(diagnosis, BaseException):
        if not superseded:
            raise diagnosis
        log.warning("revision %d was given up; its Evaluator failed: %r", rtl.revision, diagnosis)
    elif diagnosis is not None and not superseded:
        gateway.event("diagnosis", revision=rtl.revision,
                      fixes=[{"description": f} for f in diagnosis])
    return outcome, None if superseded else diagnosis


def fix_loop(
    rtl: RtlArtifact,
    tb_path: str | Path,
    tb_text: str,
    gateway: Gateway,
    toolchain,
    budget: PipelineBudget,
    workspace: Path,
    plan: Optional[list[str]] = None,
) -> tuple[list[Revision], str]:
    """Review against `plan` (when given), verify against the testbench at
    `tb_path` (whose text is `tb_text`), then diagnose and fix, until the
    candidate passes, the toolchain errors, or `max_fix_iterations` fixes are spent.

    Each revision is verified on the run's one helper thread, a pooled
    worker reused across revisions, which calls `diagnose_failures` as soon
    as the verify fails and a fix may follow; with a plan, the review runs
    meanwhile. A review rewrite that changes the code is the next revision
    and gives the verify in flight up, as a review that raises does. Only
    the calling thread writes the transcript and `events.jsonl`, where a
    sequential loop would, so neither depends on thread timing. The helper
    has ended when this returns or raises.

    Writes `rev_N.v` and `verify_N/` into `workspace` per verified revision
    N, and appends to the run the caller started on `gateway` a `verdict`
    event per review round, a `notes` event when revision N's artifact has
    notes, and the events of `_settle`, which ends each verify. Returns the
    kept revisions and the final status: Pass, ToolError or BudgetExhausted."""
    # imported here, not at module level: a library import need not pay for it
    from concurrent.futures import ThreadPoolExecutor

    tb_path = Path(tb_path)
    with ThreadPoolExecutor(max_workers=1) as helper:

        def start_verify(rtl: RtlArtifact):
            """Write `rev_N.v` and submit its verify; returns its future."""
            rtl_path = workspace / f"rev_{rtl.revision}.v"
            rtl_path.write_text(rtl.verilog_text, encoding="utf-8")
            held = _HeldWrites()
            # no fix follows the last kept revision, so nothing asks for its diagnosis
            evaluator = (RoleSession("Evaluator", gateway.backend, held)
                         if len(revisions) < budget.max_fix_iterations else None)

            def verify_and_diagnose():
                """Runs on the helper thread and writes nothing: the artifact,
                its outcome, the diagnosis, the exception `diagnose_failures`
                raised or None when it is not called, and the held writes."""
                outcome = toolchain.verify(rtl_path, tb_path, workspace / f"verify_{rtl.revision}")
                if evaluator is None or outcome.kind in _FINAL_KINDS:
                    return rtl, outcome, None, held
                try:
                    return rtl, outcome, diagnose_failures(rtl, outcome, tb_text, evaluator), held
                except BaseException as exc:  # settled by `_settle` once the outcome is recorded
                    return rtl, outcome, exc, held

            return helper.submit(verify_and_diagnose)

        revisions: list[Revision] = []
        while True:
            verify = start_verify(rtl)
            try:
                # each incomplete round but the last asks the Programmer for the missing steps
                for round_no in range(1, budget.max_review_rounds + 1) if plan else ():
                    per_step = review_rtl(plan, rtl, gateway)
                    # the complete flag is always recomputed, never taken from the reply
                    missing = sorted(i for i, r in per_step.items() if r["status"] == "Missing")
                    gateway.event("verdict", revision=rtl.revision, round=round_no,
                                  per_step=per_step, complete=not missing)
                    if not missing:
                        break
                    if round_no == budget.max_review_rounds:
                        log.warning("review never converged after %d rounds; proceeding", round_no)
                        break
                    prompt = render_prompt("reprogrammer", code=rtl.verilog_text,
                                           missing=_numbered(plan, missing),
                                           plan=_numbered(plan))
                    reply = gateway.session("Programmer").send(prompt)
                    rewrite = artifact_from_reply(reply, rtl.revision + 1, range(1, len(plan) + 1))
                    if rewrite.verilog_text != rtl.verilog_text:  # an identical one keeps rtl
                        given_up, verify = verify, None  # given up once, even if this raises
                        _settle(given_up, gateway, superseded=True)
                        rtl, verify = rewrite, start_verify(rewrite)
            except BaseException:
                if verify is not None:
                    with suppress(Exception):  # the helper's exception never replaces the review's
                        _settle(verify, gateway, superseded=True)
                raise
            if rtl.notes:
                gateway.event("notes", revision=rtl.revision, notes=rtl.notes)
            outcome, fixes = _settle(verify, gateway)
            revisions.append(Revision(rtl=rtl, outcome=outcome))
            if fixes is None:
                return revisions, outcome.kind if outcome.kind in _FINAL_KINDS else "BudgetExhausted"
            rtl = apply_fixes(rtl, fixes, gateway)


def run_pipeline(
    spec: DesignSpec,
    budget: PipelineBudget,
    gateway: Gateway,
    toolchain,
    workspace: str | Path,
) -> tuple[list[Revision], str]:
    """Plan, program and run `fix_loop` with review in it, in a `run_log`
    over `workspace`, which also gets `spec.json`; returns what `fix_loop`
    returns. The status names the design."""
    workspace = Path(workspace)
    status = {"design": spec.name}
    with run_log(workspace, gateway, status):
        write_json(workspace / "spec.json", asdict(spec))
        tb_path = Path(spec.testbench_path)
        tb_text = read_input(tb_path)  # a bad testbench fails the run before the first LLM call
        plan = make_plan(spec, gateway)
        gateway.event("plan", revision=0, steps=plan)
        rtl = write_rtl(plan, spec, gateway)
        revisions, final = fix_loop(
            rtl, tb_path, tb_text, gateway, toolchain, budget, workspace, plan
        )
        status.update(loop_status(revisions, final))
    return revisions, final
