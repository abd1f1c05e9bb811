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

from .errors import ToolchainUnavailable

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
    tool: str  # Compile | Simulate | Synthesize
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
            argv, cwd=str(cwd), capture_output=True, text=True, timeout=timeout
        )
        return ToolInvocation(
            tool=tool, argv=argv, cwd=str(cwd), exit_code=proc.returncode,
            stdout=proc.stdout, stderr=proc.stderr,
            wall_time=time.monotonic() - start,
        )
    except subprocess.TimeoutExpired as exc:
        return ToolInvocation(
            tool=tool, argv=argv, cwd=str(cwd), exit_code=-9,
            stdout=(exc.stdout or b"").decode() if isinstance(exc.stdout, bytes) else (exc.stdout or ""),
            stderr=f"killed after {timeout}s timeout",
            wall_time=time.monotonic() - start, timed_out=True,
        )


class IcarusToolchain:
    """Subprocess adapter; executable names and argv templates are data."""

    def __init__(self, config: Optional[ToolchainConfig] = None):
        self.config = config or ToolchainConfig()
        self._inv_seq = 0

    def _require(self, exe: str) -> str:
        path = shutil.which(exe)
        if path is None:
            raise ToolchainUnavailable(f"executable not found: {exe}")
        return path

    def _log_invocation(self, workspace: Path, inv: ToolInvocation) -> None:
        workspace.mkdir(parents=True, exist_ok=True)
        (workspace / f"inv_{self._inv_seq}.json").write_text(inv.to_json())
        self._inv_seq += 1

    def compile(self, rtl_path: Path, tb_path: Path, workspace: Path) -> ToolInvocation:
        rtl_path, tb_path = Path(rtl_path), Path(tb_path)
        if not rtl_path.exists():
            raise FileNotFoundError(rtl_path)
        if not tb_path.exists():
            raise FileNotFoundError(tb_path)
        exe = self._require(self.config.compiler)
        image = Path(workspace) / "sim.out"
        subst = {"image": str(image), "rtl": str(rtl_path), "tb": str(tb_path)}
        argv = [exe] + [a.format(**subst) for a in self.config.compile_args]
        inv = _run("Compile", argv, Path(workspace), timeout=60.0)
        self._log_invocation(Path(workspace), inv)
        return inv

    def simulate(
        self, image: Path, workspace: Path, timeout: Optional[float] = None
    ) -> ToolInvocation:
        image = Path(image)
        if not image.exists():
            raise FileNotFoundError(image)
        exe = self._require(self.config.simulator)
        argv = [exe] + [a.format(image=str(image)) for a in self.config.simulate_args]
        inv = _run("Simulate", argv, Path(workspace), timeout=timeout or self.config.sim_timeout)
        self._log_invocation(Path(workspace), inv)
        return inv

    def verify(self, rtl_path: Path, tb_path: Path, workspace: Path) -> VerificationOutcome:
        """Compile, simulate and classify one candidate."""
        workspace = Path(workspace)
        workspace.mkdir(parents=True, exist_ok=True)
        comp = self.compile(rtl_path, tb_path, workspace)
        sim = None
        if comp.exit_code == 0:
            sim = self.simulate(workspace / "sim.out", workspace)
        return classify(comp, sim, self.config.pass_marker, self.config.fail_pattern)


class ScriptedToolchain:
    """Test/offline double replaying a fixed sequence of outcomes."""

    def __init__(self, outcomes: list[VerificationOutcome]):
        self.outcomes = list(outcomes)
        self.cursor = 0
        self.verified_paths: list[str] = []

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedToolchain":
        raw = json.loads(Path(path).read_text())
        return cls([VerificationOutcome.from_dict(d) for d in raw])

    def verify(self, rtl_path: Path, tb_path: Path, workspace: Path) -> VerificationOutcome:
        if self.cursor >= len(self.outcomes):
            raise ToolchainUnavailable("scripted toolchain out of outcomes")
        outcome = self.outcomes[self.cursor]
        self.cursor += 1
        self.verified_paths.append(str(rtl_path))
        return outcome
