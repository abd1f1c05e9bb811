"""Adapter over an external Verilog compiler/simulator.

Compilation and simulation are recorded verbatim as ToolInvocations; log
classification is a total, reproducible function over those records and
never re-runs tools. `subprocess` is imported by the first real tool run,
so scripted and offline runs never load it.
"""

from __future__ import annotations

import json
import re
import shutil
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Optional

from .errors import ToolchainUnavailable, read_input

DEFAULT_PASS_MARKER = "PASS"
DEFAULT_FAIL_PATTERN = r"(?i)\b(error|fail(?:ed)?|mismatch)\b"
DEFAULT_SIM_TIMEOUT = 30.0

# matches iverilog-style "tb.v:12: syntax error" and
# "design.v:7: error: Unable to bind wire ..."
_DIAG_RE = re.compile(
    r"^(?P<file>[^\s:]+\.s?vh?):(?P<line>\d+):\s*(?:(?P<sev>error|warning)\s*:\s*)?(?P<msg>.+)$",
    re.IGNORECASE,
)
_ERROR_WORD_RE = re.compile(r"(?i)\berror\b")
_WARNING_WORD_RE = re.compile(r"(?i)\bwarning\b")


@dataclass
class ToolInvocation:
    tool: str  # Compile | Simulate
    argv: list[str]
    cwd: str
    exit_code: int
    stdout: str
    stderr: str
    wall_time: float
    timed_out: bool = False

    def to_json(self) -> str:
        return json.dumps(asdict(self), ensure_ascii=False, indent=2)


@dataclass
class DiagnosticRecord:
    file: str
    line: Optional[int]
    severity: str  # Error | Warning
    message: str
    raw: str

    def to_dict(self) -> dict:
        # the fields are immutable scalars, so a shallow copy equals asdict()
        return {
            "file": self.file,
            "line": self.line,
            "severity": self.severity,
            "message": self.message,
            "raw": self.raw,
        }


@dataclass
class VerificationOutcome:
    kind: str  # Pass | SyntaxFail | FunctionalFail | ToolError
    diagnostics: list[DiagnosticRecord] = field(default_factory=list)
    failing_checks: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "failing_checks": list(self.failing_checks),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "VerificationOutcome":
        return cls(
            kind=d["kind"],
            diagnostics=[DiagnosticRecord(**r) for r in d.get("diagnostics", [])],
            failing_checks=list(d.get("failing_checks", [])),
        )


def parse_diagnostics(stderr: str) -> list[DiagnosticRecord]:
    """Extract file:line:severity records; unmatched error-ish lines are
    preserved whole in raw."""
    records = []
    for raw in stderr.splitlines():
        line = raw.strip()
        if not line:
            continue
        m = _DIAG_RE.match(line)
        if m:
            sev = (m.group("sev") or "error").capitalize()
            records.append(
                DiagnosticRecord(
                    file=m.group("file"),
                    line=int(m.group("line")),
                    severity=sev if sev in ("Error", "Warning") else "Error",
                    message=m.group("msg").strip(),
                    raw=raw,
                )
            )
        elif _ERROR_WORD_RE.search(line):
            records.append(
                DiagnosticRecord(file="", line=None, severity="Error", message=line, raw=raw)
            )
        elif _WARNING_WORD_RE.search(line):
            records.append(
                DiagnosticRecord(file="", line=None, severity="Warning", message=line, raw=raw)
            )
    return records


def classify(
    compile_inv: ToolInvocation,
    sim_inv: Optional[ToolInvocation],
    pass_marker: str = DEFAULT_PASS_MARKER,
    fail_pattern: str = DEFAULT_FAIL_PATTERN,
) -> VerificationOutcome:
    """Total classification of recorded invocations into an outcome."""
    if compile_inv.exit_code != 0:
        diags = parse_diagnostics(compile_inv.stderr) or [
            DiagnosticRecord(
                file="",
                line=None,
                severity="Error",
                message=f"compile failed with exit code {compile_inv.exit_code}",
                raw=compile_inv.stderr or f"exit {compile_inv.exit_code}",
            )
        ]
        return VerificationOutcome("SyntaxFail", diagnostics=diags)

    if sim_inv is None:
        return VerificationOutcome(
            "ToolError",
            diagnostics=[
                DiagnosticRecord(
                    file="", line=None, severity="Error",
                    message="compile succeeded but no simulation was recorded",
                    raw="<missing simulation>",
                )
            ],
        )

    if sim_inv.timed_out or sim_inv.exit_code < 0:
        return VerificationOutcome(
            "ToolError",
            diagnostics=[
                DiagnosticRecord(
                    file="", line=None, severity="Error",
                    message="simulation timed out" if sim_inv.timed_out
                    else f"simulator killed (exit {sim_inv.exit_code})",
                    raw=sim_inv.stderr or "<no stderr>",
                )
            ],
        )

    text = sim_inv.stdout
    fails = re.compile(fail_pattern).search
    # the pass marker itself must not be counted as a failing check
    failing = [ln for ln in text.splitlines() if fails(ln) and pass_marker not in ln]
    if failing or pass_marker not in text:
        diags = parse_diagnostics(sim_inv.stderr)
        return VerificationOutcome("FunctionalFail", diagnostics=diags, failing_checks=failing)
    return VerificationOutcome("Pass")


@dataclass
class ToolchainConfig:
    compiler: str = "iverilog"
    compile_args: list[str] = field(
        default_factory=lambda: ["-o", "{image}", "{rtl}", "{tb}"]
    )
    simulator: str = "vvp"
    simulate_args: list[str] = field(default_factory=lambda: ["{image}"])
    sim_timeout: float = DEFAULT_SIM_TIMEOUT
    pass_marker: str = DEFAULT_PASS_MARKER
    fail_pattern: str = DEFAULT_FAIL_PATTERN


def _run(tool: str, argv: list[str], cwd: Path, timeout: Optional[float]) -> ToolInvocation:
    import subprocess

    start = time.monotonic()
    try:
        proc = subprocess.run(
            argv, cwd=str(cwd), capture_output=True, timeout=timeout,
            encoding="utf-8", errors="replace",  # tool output is not always UTF-8
        )
        return ToolInvocation(
            tool=tool, argv=argv, cwd=str(cwd), exit_code=proc.returncode,
            stdout=proc.stdout, stderr=proc.stderr,
            wall_time=time.monotonic() - start,
        )
    except subprocess.TimeoutExpired as exc:
        return ToolInvocation(
            tool=tool, argv=argv, cwd=str(cwd), exit_code=-9,
            stdout=(exc.stdout or b"").decode("utf-8", "replace"),  # bytes even in text mode
            stderr=f"killed after {timeout}s timeout",
            wall_time=time.monotonic() - start, timed_out=True,
        )


class IcarusToolchain:
    """Subprocess adapter; executable names and argv templates are data."""

    def __init__(self, config: Optional[ToolchainConfig] = None):
        self.config = config or ToolchainConfig()
        self._inv_seq = 0

    def _tool(self, tool: str, exe: str, args: list[str], subst: dict[str, str],
              workspace: Path, timeout: Optional[float]) -> ToolInvocation:
        """Run `exe` with `args` formatted from `subst`, recorded as the next
        `inv_N.json` in `workspace`."""
        path = shutil.which(exe)
        if path is None:
            raise ToolchainUnavailable(f"executable not found: {exe}")
        inv = _run(tool, [path] + [a.format(**subst) for a in args], workspace, timeout)
        (workspace / f"inv_{self._inv_seq}.json").write_text(inv.to_json(), encoding="utf-8")
        self._inv_seq += 1
        return inv

    def verify(self, rtl_path: Path, tb_path: Path, workspace: Path) -> VerificationOutcome:
        """Compile, simulate and classify one candidate."""
        rtl_path, tb_path, workspace = Path(rtl_path), Path(tb_path), Path(workspace)
        workspace.mkdir(parents=True, exist_ok=True)
        for path in (rtl_path, tb_path):
            if not path.exists():
                raise FileNotFoundError(path)
        cfg = self.config
        image = workspace / "sim.out"
        comp = self._tool("Compile", cfg.compiler, cfg.compile_args,
                          {"image": str(image), "rtl": str(rtl_path), "tb": str(tb_path)},
                          workspace, 60.0)
        sim = None
        if comp.exit_code == 0:
            if not image.exists():
                raise FileNotFoundError(image)
            sim = self._tool("Simulate", cfg.simulator, cfg.simulate_args,
                             {"image": str(image)}, workspace, cfg.sim_timeout)
        return classify(comp, sim, cfg.pass_marker, cfg.fail_pattern)


class ScriptedToolchain:
    """Test/offline double replaying a fixed sequence of outcomes."""

    def __init__(self, outcomes: list[VerificationOutcome]):
        self.outcomes = list(outcomes)
        self.cursor = 0

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedToolchain":
        return read_input(path, lambda text: cls([VerificationOutcome.from_dict(d)
                                                  for d in json.loads(text)]))

    def verify(self, rtl_path: Path, tb_path: Path, workspace: Path) -> VerificationOutcome:
        if self.cursor >= len(self.outcomes):
            raise ToolchainUnavailable("scripted toolchain out of outcomes")
        outcome = self.outcomes[self.cursor]
        self.cursor += 1
        return outcome
