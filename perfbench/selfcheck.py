"""Runs every workload and checks the benchmark itself.

    python3 perfbench/selfcheck.py

Run from the checkout root. For every workload it
  1. runs the untraced benchmark at SEED and at the HELD_OUT seed, prints
     both reports (every end-to-end metric with its unit) and requires that
     every output agrees with the oracle (error_rate 0);
  2. runs the traced benchmark twice at SEED and requires identical
     counts (LLM calls, prompt characters, workspace files, transcript
     lines, verify calls, fingerprint calls and bytes, ...) and identical
     output digests, which cover every verdict and fingerprint;
  3. runs it with one oracle fact corrupted and requires exit status 1.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from gen import WORKLOADS
SEED = 7
HELD_OUT = 1009
SECONDS = 6
COUNTS = (
    "gateway.llm_calls", "gateway.prompt_chars", "gateway.transcript_lines",
    "engine.workspace_files", "engine.review_rounds", "engine.fix_iterations",
    "toolchain.verify_calls", "toolchain.classify_klines",
    "inspect_rtl.fingerprint_calls", "inspect_rtl.fingerprint_mb",
    "optimizer.prompt_chars", "metrics.parse_report_calls",
)


def run(workload: str, seed: int, seconds: float, trace: int, inject: bool = False,
        show: bool = False) -> tuple[int, dict | None]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if inject:
        cmd.append("--inject-mismatch")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                          timeout=180)
    if show:
        print("\n".join(proc.stdout.splitlines()[:-1]), flush=True)
    summary = Path(".perfbench_work/results") / f"{workload}-s{seed}-t{trace}.json"
    return proc.returncode, json.loads(summary.read_text()) if summary.exists() else None


def main() -> int:
    ok = True

    def report(name: str, passed: bool, detail: str = "") -> None:
        nonlocal ok
        ok &= passed
        print(f"[selfcheck] {name}: {'PASS' if passed else 'FAIL'} {detail}".rstrip(), flush=True)

    for w in WORKLOADS:
        for seed in (SEED, HELD_OUT):
            rc, res = run(w, seed, SECONDS, 0, show=True)
            report(f"{w} seed {seed} error_rate 0", rc == 0 and res is not None and res["failed"] == 0)
        (rc1, a), (rc2, b) = (run(w, SEED, SECONDS, 1) for _ in range(2))
        same = rc1 == rc2 == 0 and a and b and a["digests"] == b["digests"] and len(a["digests"]) == 1
        diff = [k for k in COUNTS if a["metrics"][k] != b["metrics"][k]] if same else []
        report(f"{w} counts and digests repeat at seed {SEED}", bool(same) and not diff,
               f"differing: {diff}" if diff else "")
        rc, _ = run(w, SEED, SECONDS, 0, inject=True)
        report(f"{w} injected oracle mismatch fails the run", rc == 1, f"exit {rc}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
