"""Checks rtlflow's outputs against the facts the generator recorded.

Nothing here imports rtlflow: expected verdicts, call counts, improvement
percentages and structural facts all come from `facts.json`, which the
generator wrote from how it built each case.
"""

from __future__ import annotations

import csv
import json
import re
from decimal import Decimal
from pathlib import Path

HEADLINE = ("cell_area", "design_area", "dynamic_power", "leakage_power", "cp_length", "cp_slack")
PCT_TOLERANCE = 0.05  # acceptance criterion 1's closure tolerance
FINGERPRINT_FACTS = ("instance_groups", "carry_chain_detected", "fsm_detected",
                     "clocked_always", "comb_always", "pipeline_stages")


def improvement(metric: str, base: Decimal, opt: Decimal) -> float | None:
    """Signed percent, positive = better. Slack compares violation
    magnitudes and is N/A when the baseline meets timing."""
    if metric == "cp_slack":
        if base >= 0:
            return None
        if opt >= 0:
            return 100.0
        return float((abs(base) - abs(opt)) / abs(base) * 100)
    return float((base - opt) / base * 100)


def check_suite_case(name: str, fact: dict, status: str, ws: Path, obs: dict) -> list[str]:
    """One case of a suite pass: verdict, persisted status, calls and the
    optimized variant. `obs` holds what the doubles and optimize saw."""
    errs = []

    def expect(what, got, want):
        if got != want:
            errs.append(f"{name}: {what} is {got!r}, expected {want!r}")

    expect("suite status", status, fact["status"])
    st = json.loads((ws / "status.json").read_text())
    expect("final_status", st.get("final_status"), fact["final_status"])
    expect("iterations_used", st.get("iterations_used"), fact["iterations_used"])
    expect("fix iterations", max(st.get("revisions") or [-1]), fact["fix_iterations"])
    expect("llm calls", obs["llm_calls"], fact["llm_calls"])
    expect("script fully consumed", obs["script_consumed"], True)
    expect("verify kinds", obs["verify_kinds"], fact["verify_kinds"])
    if fact["status"] == "Pass":
        expect("final revision text", (ws / f"rev_{max(st['revisions'])}.v").read_text(),
               fact["final_rtl"])
        opt, want = obs.get("optimize"), fact["optimize"]
        if opt is None:
            errs.append(f"{name}: passing case was not optimized")
        else:
            expect("optimized goal", opt["goal"], want["goal"])
            expect("optimized variant passed", opt["passed"], True)
            expect("optimized text", opt["rtl"], want["final_rtl"])
            expect("optimize llm calls", opt["llm_calls"], want["llm_calls"])
            expect("optimize verify calls", opt["verify_calls"], want["verify_calls"])
            expect("techniques per pass", 1 <= len(opt["techniques"]) <= 2, True)
    return errs


def check_suite_tables(facts: dict, names: list[str], out: Path) -> list[str]:
    errs = []
    cases = {n: facts["cases"][n] for n in names}
    passing = sorted(n for n, f in cases.items() if f["status"] == "Pass")

    table = (out / "success_table.md").read_text()
    m = re.search(r"\*\*(\d+)/(\d+) \(([\d.]+)%\)\*\*", table)
    if not m:
        return [f"success_table.md has no success-rate line:\n{table}"]
    passed, total, rate = int(m.group(1)), int(m.group(2)), float(m.group(3))
    if (passed, total) != (len(passing), len(cases)):
        errs.append(f"success rate {passed}/{total}, expected {len(passing)}/{len(cases)}")
    if abs(rate - 100.0 * len(passing) / len(cases)) > PCT_TOLERANCE + 1e-9:
        errs.append(f"success rate {rate}% for {len(passing)}/{len(cases)}")
    rows = re.findall(r"^\| (d\d{3}_\w+) \| (\S+) \|$", table, re.MULTILINE)
    if sorted(d for d, _ in rows) != sorted(cases):
        errs.append("success_table.md does not list every case exactly once")
    for d, mark in rows:
        if (mark == "pass") != (cases[d]["status"] == "Pass"):
            errs.append(f"success_table.md marks {d} as {mark!r}")

    with (out / "ppa_table.csv").open() as fh:
        ppa = {row["design"]: row for row in csv.DictReader(fh)}
    if sorted(ppa) != passing:
        errs.append(f"ppa_table.csv rows {sorted(ppa)}, expected {passing}")
    for d in passing:
        base = {k: Decimal(v) for k, v in cases[d]["base"].items()}
        opt = {k: Decimal(v) for k, v in cases[d]["optimize"]["opt"].items()}
        row = ppa.get(d, {})
        for metric in HEADLINE:
            want = improvement(metric, base[metric], opt[metric])
            got = row.get(f"{metric}_improvement_pct")
            if want is None:
                ok = got == "N/A"
            else:
                ok = got not in (None, "N/A") and abs(float(got) - want) <= PCT_TOLERANCE + 1e-9
            if not ok:
                errs.append(f"{d}: {metric} improvement {got!r}, expected {want}")

    with (out / "tradeoff.csv").open() as fh:
        points = {(r["design"], r["variant"]): r for r in csv.DictReader(fh)}
    for d in passing:
        for variant, values in (("baseline", cases[d]["base"]), ("optimized", cases[d]["optimize"]["opt"])):
            row = points.get((d, variant))
            for col, metric in (("dynamic_power_uW", "dynamic_power"),
                                ("design_area_um2", "design_area"), ("cp_length_ns", "cp_length")):
                want = float(values[metric])
                if row is None or abs(float(row[col]) - want) > 1e-9 * max(1.0, abs(want)):
                    errs.append(f"{d}: tradeoff {variant} {col} {row and row[col]!r}, expected {want}")
    return errs


def check_fingerprint(name: str, fact: dict, fp: dict, recs: list[tuple[str, list[str]]]) -> list[str]:
    errs = [f"{name}: {k} is {fp[k]!r}, expected {fact[k]!r}"
            for k in FINGERPRINT_FACTS if fp[k] != fact[k]]
    if [g for g, _ in recs] != ["power", "timing", "area"]:
        errs.append(f"{name}: recommendations for goals {[g for g, _ in recs]}")
    errs += [f"{name}: {g} recommends {t}" for g, t in recs if not 1 <= len(t) <= 2]
    return errs
