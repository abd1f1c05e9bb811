"""perfbench: one run of one workload of rtlflow's benchmark.

    python3 perfbench/run.py --workload suite_llm --seed 1 --seconds 30 --trace 0

Run from the root of a checkout that holds rtlflow's sources under src/.
The run generates its inputs from --seed under .perfbench_work/, times
set-up in fresh interpreters, runs the workload's timed loop in a worker
process (perfbench/worker.py) and checks every output against the
generator's facts. It prints a human-readable report, then, as the last
line, one JSON object with the end-to-end metrics (--trace 0) or the
per-layer metrics (--trace 1) named in BENCHMARK.json.

A traced run splits --seconds between an untraced and a traced worker, so
that trace.overhead_pct compares the two. --inject-mismatch corrupts one
oracle fact to show that a disagreement fails the run.

Exit status: 0 when every output agrees with the oracle, 1 when any does
not, 2 when the checkout or a worker is unusable (no JSON is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170.0  # the whole run must end within 180 s
TAIL_BEYOND = 10  # the tail percentile keeps this many samples beyond it
SETUP_PROBES = 11  # fresh interpreters timed per run for setup_s


def _probe(root: Path, inputs: Path, timeout: float) -> float:
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "probe.py"), str(inputs)], cwd=root,
                          stdout=subprocess.PIPE, text=True, timeout=timeout)
    fields = proc.stdout.split()
    if proc.returncode != 0 or len(fields) != 2 or fields[0] != "ready":
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return float(fields[1]) - t0


def _worker(root: Path, args, inputs: Path, out: Path, seconds: float, traced: bool,
            timeout: float, spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--inputs", str(inputs), "--seconds", str(seconds), "--trace", str(int(traced)),
           "--out", str(out)]
    if spans:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, cwd=root, stdout=sys.stderr, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(out.read_text())


def _tally(res: dict) -> tuple[int, int, list[str]]:
    passes = res["passes"]
    attempted = sum(p["counts"]["cases"] for p in passes)
    failed = sum(len(p["failed"]) + p["counts"].get("table_errors", 0) for p in passes)
    errors = res["warmup_errors"] + [e for p in passes for e in p["errors"]]
    return attempted, failed + len(res["warmup_errors"]), errors


def _cases_per_s(res: dict) -> float:
    """Cases of one pass over the fastest pass wall. Every timed pass runs
    the same cases; the host can only slow a pass down, so the fastest of
    them is the steadiest estimate (as with timeit's best of N)."""
    passes = res["passes"]
    return passes[0]["counts"]["cases"] / min(p["wall"] for p in passes)


def end_to_end(res: dict, setup: list[float]) -> tuple[dict, dict]:
    """(metrics, notes): every metric as (value, unit); None marks N/A."""
    passes = res["passes"]
    walls = sorted(wall for p in passes for wall in p["cases"].values())
    n = len(walls)
    tail_at = max(0, n - TAIL_BEYOND - 1)
    attempted, failed, _ = _tally(res)
    suite = "passing" in passes[0]["counts"]
    passing = sum(p["counts"].get("passing", 0) for p in passes)

    def per_pass(key):
        return sum(p["counts"][key] for p in passes) / passing if suite and passing else None

    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "cases_per_s": (_cases_per_s(res), "cases/s"),
        "case_wall_p50_s": (statistics.median(walls), "s"),
        "case_wall_tail_s": (walls[tail_at], "s"),
        "error_rate": (failed / attempted, "ratio"),
        "llm_calls_per_pass": (per_pass("llm_calls"), "calls"),
        "prompt_chars_per_pass": (per_pass("prompt_chars"), "chars"),
        "verify_calls_per_pass": (per_pass("verify_calls"), "calls"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    notes = {
        "case_wall_p50_s": f"over {n} case walls of {len(passes)} passes",
        "case_wall_tail_s": f"p{100.0 * tail_at / n:.1f} of {n} case walls, "
                            f"{n - tail_at - 1} beyond",
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "cases_per_s": f"{attempted} cases in {len(passes)} passes, {res['workers']} worker(s)",
    }
    return metrics, notes


def _inject_mismatch(facts: dict, inputs: Path) -> None:
    name = sorted(facts["cases"])[0]
    fact = facts["cases"][name]
    if facts["kind"] == "inspect":
        fact["pipeline_stages"] += 1
    else:
        fact["llm_calls"] += 1
    (inputs / "facts.json").write_text(json.dumps(facts))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-mismatch", action="store_true")
    args = ap.parse_args()
    began = time.monotonic()

    root = Path.cwd()
    if not (root / "src" / "rtlflow" / "__init__.py").is_file():
        print("perfbench: no rtlflow sources under ./src; run from the root of a checkout",
              file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())
    results = root / ".perfbench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    run_dir = root / ".perfbench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"

    def remaining() -> float:
        return max(1.0, DEADLINE_S - (time.monotonic() - began))

    try:
        inputs = run_dir / "inputs"
        facts = gen.generate(args.workload, args.seed, inputs)
        if args.inject_mismatch:
            _inject_mismatch(facts, inputs)
        if args.trace:
            plain = _worker(root, args, inputs, run_dir / "plain.json", args.seconds / 2, False,
                            remaining())
            res = _worker(root, args, inputs, run_dir / "traced.json", args.seconds / 2, True,
                          remaining(), spans=results / f"{tag}-spans.jsonl")
            layers = dict(res["layers"])
            layers["trace.overhead_pct"] = 100.0 * (1 - _cases_per_s(res) / _cases_per_s(plain))
            wanted = declared["per_layer"]
            shown = {m["name"]: (layers[m["name"]], m["unit"]) for m in wanted}
            notes = {}
            runs = [plain, res]
        else:
            # half of the set-up probes run before the worker, half after it,
            # so that their median spans the run rather than one moment of it
            setup = [_probe(root, inputs, remaining()) for _ in range(SETUP_PROBES // 2)]
            res = _worker(root, args, inputs, run_dir / "plain.json", args.seconds, False,
                          remaining())
            setup += [_probe(root, inputs, remaining()) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
            shown, notes = end_to_end(res, setup)
            wanted = declared["end_to_end"]
            runs = [res]
    except (RuntimeError, subprocess.TimeoutExpired, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: run failed: {exc!r}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = failed = 0
    errors: list[str] = []
    for r in runs:
        a, f, e = _tally(r)
        attempted, failed, errors = attempted + a, failed + f, errors + e
    for e in errors[:20]:
        print(f"oracle mismatch: {e}", file=sys.stderr)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(res['passes'])} workers={res['workers']} "
          f"workspaces={run_dir.relative_to(root)} (removed after the run)")
    for name, (value, unit) in shown.items():
        text = "N/A" if value is None else f"{value:.6g} {unit}"
        print(f"  {name:36s} {text:>18s}  {notes.get(name, '')}")
    (results / f"{tag}.json").write_text(json.dumps({
        "metrics": {k: v for k, (v, _) in shown.items()},
        "counts": [p["counts"] for p in res["passes"]],
        "digests": sorted({p["digest"] for p in res["passes"]}),
        "failed": failed,
    }, indent=1))

    metrics = {m["name"]: {"value": shown[m["name"]][0], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
