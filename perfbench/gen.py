"""Seeded generator for the perfbench workloads.

Everything rtlflow sees is written here from one seed: design specs,
testbenches, the suite manifest, synthesis reports in two dialects with
mixed units, scripted role replies, recorded iverilog/vvp logs and large
Verilog sources. Beside the inputs it writes `facts.json`: what each case
must produce, derived from how the case was built and never from running
rtlflow. The oracle checks every output against those facts.
"""

from __future__ import annotations

import json
import math
import random
from decimal import Decimal
from pathlib import Path

import rtl

GOALS = ("power", "timing", "area")

# rtlflow's default PipelineBudget, which the workers run with: cases that
# exhaust the budget fail max_fix_iterations + 1 verify calls, and a review
# that does not converge is scripted for its max_review_rounds of 2
MAX_FIX_ITERATIONS = 5

# verdict mix per 16 suite cases; a suite's case count is a multiple of 16
MIX = {"first_try": 4, "review_converges": 2, "review_stalls": 1, "fixes_1": 2,
       "fixes_2": 2, "fixes_3": 2, "exhaust_functional": 2, "exhaust_syntax": 1}
OPTIMIZE_FIX_SHARE = 0.25  # share of optimize passes that need one fix

# Per suite workload: cases, run_suite workers ("nproc" = usable cores),
# whether the doubles sleep the modelled latency, and the line ranges of
# the recorded compile-error and simulation logs. The waiting suites use
# logs 10x smaller so that waiting dominates their wall time.
SUITES = {
    "suite_cpu": {"cases": 64, "workers": 1, "latency": False,
                  "compile_log_lines": (10, 3000), "sim_log_lines": (20, 20000)},
    "suite_llm": {"cases": 48, "workers": "nproc", "latency": True,
                  "compile_log_lines": (10, 300), "sim_log_lines": (20, 2000)},
    "suite_llm_serial": {"cases": 32, "workers": 1, "latency": True,
                         "compile_log_lines": (10, 300), "sim_log_lines": (20, 2000)},
}
WORKLOADS = (*SUITES, "inspect_large")

# inspect_large: per shape, one source on each of PER_SHAPE points of a
# geometric grid over SIZES_BYTES, each jittered by up to SIZE_JITTER
SIZES_BYTES = (10_000, 1_500_000)
PER_SHAPE = 9
SIZE_JITTER = 0.03


def _rng(workload: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{stream}")


def stratified_log(layout: random.Random, rng: random.Random, count: int,
                   lo: float, hi: float) -> list[int]:
    """`count` sizes, one from each equal-probability stratum of a
    log-uniform distribution on [lo, hi]. `layout` fixes which slot gets
    which stratum; `rng` draws the point inside the stratum. Stratifying
    keeps the total work of a pass nearly constant across seeds."""
    span = math.log(hi) - math.log(lo)
    strata = list(range(count))
    layout.shuffle(strata)
    return [int(math.exp(math.log(lo) + (k + rng.random()) / count * span)) for k in strata]


# --- reports ---------------------------------------------------------------

def _dec(value: float, places: int) -> Decimal:
    return Decimal(value).quantize(Decimal(1).scaleb(-places))


def _true_metrics(rng: random.Random) -> dict[str, Decimal]:
    cell = _dec(rng.uniform(50, 5000), 2)
    comb = _dec(float(cell) * rng.uniform(0.55, 0.9), 2)
    return {
        "cell_area": cell,
        "design_area": _dec(float(cell) * rng.uniform(1.02, 1.3), 2),
        "combinational_area": comb,
        "sequential_area": cell - comb,
        "dynamic_power": _dec(rng.uniform(5, 500), 3),
        "leakage_power": _dec(rng.uniform(0.05, 5), 4),
        "cp_length": _dec(rng.uniform(0.5, 8), 3),
        "cp_slack": _dec(rng.uniform(-2, -0.01) if rng.random() < 0.5 else rng.uniform(0.01, 1), 3),
    }


def _optimized(rng: random.Random, base: dict[str, Decimal]) -> dict[str, Decimal]:
    opt = {}
    for name, value in base.items():
        if name == "cp_slack":
            continue
        opt[name] = _dec(float(value) * rng.uniform(0.7, 1.1), 4)
    # keep design_area clear of cell_area so unit conversions cannot invert them
    opt["design_area"] = _dec(float(opt["cell_area"]) * rng.uniform(1.02, 1.3), 4)
    slack = base["cp_slack"]
    opt["cp_slack"] = _dec(float(slack) * rng.uniform(0.2, 0.9), 3) if (
        slack < 0 and rng.random() < 0.5) else _dec(rng.uniform(0.01, 1), 3)
    return opt


_CANON_UNITS = {
    "area": [("um2", Decimal(1)), ("mm2", Decimal("1e-6"))],
    "power": [("uW", Decimal(1)), ("mW", Decimal("1e-3")), ("nW", Decimal(1000))],
    "time": [("ns", Decimal(1)), ("ps", Decimal(1000))],
}


def _kind(name: str) -> str:
    if name.endswith("_area"):
        return "area"
    if name.endswith("_power"):
        return "power"
    return "time"


def render_report(rng: random.Random, design: str, m: dict[str, Decimal], dialect: str) -> str:
    if dialect == "canonical":
        lines = [f"# synthesis summary for {design}"]
        for name, value in m.items():
            unit, scale = rng.choice(_CANON_UNITS[_kind(name)])
            lines.append(f"{name}: {format(value * scale, 'f')} {unit}")
        return "\n".join(lines) + "\n"
    punit, pscale = rng.choice(_CANON_UNITS["power"])

    def pw(name):
        return f"{format(m[name] * pscale, 'f')} {punit}"

    slack = m["cp_slack"]
    return "\n".join([
        "****************************************",
        "Report : area",
        f"Design : {design}",
        "****************************************",
        f"Combinational area:            {m['combinational_area']}",
        f"Noncombinational area:         {m['sequential_area']}",
        f"Total cell area:               {m['cell_area']}",
        f"Total area:                    {m['design_area']}",
        "",
        "Report : power",
        f"Total Dynamic Power    = {pw('dynamic_power')}",
        f"Cell Leakage Power     = {pw('leakage_power')}",
        "",
        "Report : timing",
        "  Startpoint: din (input port)",
        "  Endpoint: q_reg (rising edge-triggered flip-flop)",
        f"  data arrival time      {m['cp_length']}",
        f"  slack ({'MET' if slack >= 0 else 'VIOLATED'})      {slack}",
        "",
    ])


# --- recorded tool logs -------------------------------------------------------

def _compile_error_log(rng: random.Random, lines: int, rev: int) -> str:
    out = []
    for i in range(lines - 1):
        r = rng.random()
        ln = rng.randint(1, 400)
        if r < 0.45:
            out.append(f"rev_{rev}.v:{ln}: syntax error")
        elif r < 0.7:
            out.append(f"rev_{rev}.v:{ln}: error: Unknown module type: cell_{ln % 17}")
        elif r < 0.85:
            out.append(f"rev_{rev}.v:{ln}: warning: Port {ln % 9} of instance u{ln} "
                       f"expects {ln % 32 + 1} bits, got {ln % 16 + 1}.")
        elif r < 0.95:
            out.append(f"tb.v:{ln}: error: Unable to bind wire/reg/memory `sig_{ln}'")
        else:
            out.append(f"        : Padding {ln % 8} high bits of the port.")
    out.append(f"{lines // 2} error(s) during elaboration.")
    return "\n".join(out) + "\n"


def _sim_log(rng: random.Random, lines: int, mismatches: int) -> str:
    at = set(rng.sample(range(lines), min(mismatches, lines))) if mismatches else set()
    out = ["VCD info: dumpfile wave.vcd opened for output."]
    t = 0
    for i in range(lines):
        bits = rng.getrandbits(50)
        t += 5 << (bits >> 48)
        if i in at:
            out.append(f"ERROR: mismatch at time {t}: got {bits & 255}, expected {bits >> 8 & 255}")
        else:
            out.append(f"t={t} in=0x{bits & 0xffff:04x} out=0x{bits >> 16 & 0xffff:04x} "
                       f"ref=0x{bits >> 32 & 0xffff:04x} ok")
    if mismatches:
        out.append(f"Simulation finished: {mismatches} checks failed")
    else:
        out.append(f"PASS: {lines} vectors checked")
    out.append(f"tb.v:{rng.randint(40, 90)}: $finish called at {t} (1ps)")
    return "\n".join(out) + "\n"


def _invocation(tool: str, exit_code: int, stdout: str, stderr: str) -> dict:
    argv = ["iverilog", "-o", "sim.out", "rev.v", "tb.v"] if tool == "Compile" else ["vvp", "sim.out"]
    return {"tool": tool, "argv": argv, "cwd": ".", "exit_code": exit_code,
            "stdout": stdout, "stderr": stderr, "wall_time": 0.0}


def _record(rng: random.Random, kind: str, lines: int, rev: int) -> dict:
    """One verify call's recorded compile (and simulate) invocations."""
    if kind == "SyntaxFail":
        return {"compile": _invocation("Compile", 1, "", _compile_error_log(rng, lines, rev)),
                "simulate": None, "lines": lines}
    warn = "".join(f"rev_{rev}.v:{rng.randint(1, 99)}: warning: implicit definition of wire "
                   f"'n{k}'.\n" for k in range(rng.randint(0, 3)))
    mism = rng.randint(1, 30) if kind == "FunctionalFail" else 0
    return {"compile": _invocation("Compile", 0, "", warn),
            "simulate": _invocation("Simulate", 0, _sim_log(rng, lines, mism), ""),
            "lines": lines + 3}


# --- suite workloads ------------------------------------------------------------

_FIX_TEXTS = [
    "widen the register to the declared port width",
    "use non-blocking assignments in the clocked block",
    "reset every register in the reset branch",
    "drive the output from the registered value",
    "fix the off-by-one comparison on the terminal count",
    "declare the missing wire before use",
    "remove the duplicate driver of the output",
]


def _case_plan(kind: str, rng: random.Random) -> tuple[list[str], list[str]]:
    """Verify outcome kinds in order, and the review pattern of each revision
    ('ok', 'converges' = one incomplete review then complete, 'stalls' =
    incomplete in every round)."""
    fail = lambda: rng.choice(("SyntaxFail", "FunctionalFail"))  # noqa: E731
    if kind.startswith("fixes_"):
        kinds = [fail() for _ in range(int(kind[-1]))] + ["Pass"]
    elif kind.startswith("exhaust_"):
        n = MAX_FIX_ITERATIONS + 1
        last = "SyntaxFail" if kind == "exhaust_syntax" else "FunctionalFail"
        kinds = [fail() for _ in range(n - 1)] + [last]
    else:
        kinds = ["Pass"]
    reviews = ["ok"] * len(kinds)
    if kind == "review_converges":
        reviews[0] = "converges"
    elif kind == "review_stalls":
        reviews[0] = "stalls"
    return kinds, reviews


def _review_reply(notes: list[str], missing: set[int]) -> str:
    return "\n".join(
        f"STEP {k}: MISSING - no code found for: {note}" if k in missing
        else f"STEP {k}: IMPLEMENTED - found: {note}"
        for k, note in enumerate(notes, 1))


def _fenced(intro: str, code: str) -> str:
    return f"{intro}\n\n```verilog\n{code}```\n"


def gen_suite(workload: str, seed: int, out: Path) -> dict:
    """The suite's shape (verdict mix, templates, sizes of prompts, the
    log-size stratum of every verify call) is a fixed layout per workload;
    the seed draws case order, every text and number, and each log size
    within its stratum. Seeds thus change the inputs but not the workload's
    statistical shape, which keeps medians steady from seed to seed."""
    wcfg = SUITES[workload]
    layout = random.Random(f"{workload}:layout")
    rng = _rng(workload, seed, "suite")
    cases = []
    for kind, count in MIX.items():
        for _ in range(count * wcfg["cases"] // 16):
            verify, reviews = _case_plan(kind, layout)
            cases.append({
                "kind": kind, "verify": verify, "reviews": reviews,
                "template": rtl.TEMPLATES[layout.randrange(len(rtl.TEMPLATES))],
                "width": layout.choice((4, 8, 12, 16, 24, 32)),
                "depth": layout.randint(2, 10),
                "steps": layout.randint(3, 7),
                "preamble": layout.randint(0, 30),
                "checks": layout.randint(10, 60),
                "fixes": [layout.randint(1, 4) for _ in verify],
            })
    passing = [c for c in cases if c["verify"][-1] == "Pass"]
    n_fix = round(len(passing) * OPTIMIZE_FIX_SHARE)
    opt_fix = [True] * n_fix + [False] * (len(passing) - n_fix)
    layout.shuffle(opt_fix)
    for c, fix in zip(passing, opt_fix):
        c["goal"] = layout.choice(GOALS)
        c["opt_verify"] = [layout.choice(("SyntaxFail", "FunctionalFail")), "Pass"] if fix else ["Pass"]

    # stratify log sizes per log type over every verify call of the suite
    slots = {"SyntaxFail": [], "sim": []}
    for i, c in enumerate(cases):
        for key in ("verify", "opt_verify"):
            for j, k in enumerate(c.get(key, [])):
                slots["SyntaxFail" if k == "SyntaxFail" else "sim"].append((i, key, j))
    sizes = {}
    for typ, rng_key in (("SyntaxFail", "compile_log_lines"), ("sim", "sim_log_lines")):
        lo, hi = wcfg[rng_key]
        for slot, n in zip(slots[typ], stratified_log(layout, rng, len(slots[typ]), lo, hi)):
            sizes[slot] = n
    for i, c in enumerate(cases):
        c["sizes"] = {(key, j): n for (ci, key, j), n in sizes.items() if ci == i}

    rng.shuffle(cases)
    for d in ("specs", "tb", "rpt", "scripts"):
        (out / d).mkdir(parents=True, exist_ok=True)
    manifest = ["cases:"]
    facts = {"workload": workload, "kind": "suite", "cases": {}}
    for i, c in enumerate(cases):
        c["name"] = f"d{i:03d}_{c['template']}"
        facts["cases"][c["name"]] = _write_case(rng, c, out, manifest)
    (out / "suite.yaml").write_text("\n".join(manifest) + "\n")
    return facts


def _write_case(rng: random.Random, c: dict, out: Path, manifest: list[str]) -> dict:
    name, template = c["name"], c["template"]
    module = f"m_{name}"
    width, depth, preamble = c["width"], c["depth"], c["preamble"]
    notes = rtl.step_notes(template, c["steps"])

    spec = {
        "name": name,
        "description": f"A {width}-bit {template} named {module}. " + " ".join(
            f"It must {n}." for n in notes),
        "module_name": module,
        "ports": rtl.suite_ports(template, width),
        "testbench_path": f"../tb/{name}_tb.v",
        "clocked": template != "adder",
    }
    (out / "specs" / f"{name}.json").write_text(json.dumps(spec, indent=2))
    (out / "tb" / f"{name}_tb.v").write_text(
        rtl.testbench(module, template, width, c["checks"]))

    def code(rev, fixes):
        return rtl.suite_module(module, template, width, depth, notes, fixes, rev, preamble)

    turns = [
        {"role": "Planner", "reply": "Here is the implementation plan:\n" + "\n".join(
            f"{k}. {n.capitalize()}." for k, n in enumerate(notes, 1))},
        {"role": "Programmer", "reply": _fenced("Here is the module:", code(0, []))},
    ]
    records = []
    current = code(0, [])
    all_steps = range(1, len(notes) + 1)
    fixes_applied = 0
    for rev, (kind, review) in enumerate(zip(c["verify"], c["reviews"])):
        if review == "ok":
            turns.append({"role": "Reviewer", "reply": _review_reply(notes, set())})
        else:
            missing = {rng.choice(list(all_steps))}
            turns.append({"role": "Reviewer", "reply": _review_reply(notes, missing)})
            turns.append({"role": "Programmer",
                          "reply": _fenced("Rewritten with the missing steps:", current)})
            turns.append({"role": "Reviewer", "reply": _review_reply(
                notes, missing if review == "stalls" else set())})
        records.append(_record(rng, kind, c["sizes"][("verify", rev)], rev))
        if kind == "Pass" or rev + 1 == len(c["verify"]):
            break
        fixes = rng.sample(_FIX_TEXTS, c["fixes"][rev])
        turns.append({"role": "Evaluator", "reply": "The log points at these causes:\n" + "\n".join(
            f"{k}. {f.capitalize()}." for k, f in enumerate(fixes, 1))})
        current = code(rev + 1, fixes)
        turns.append({"role": "Programmer", "reply": _fenced("Here is the corrected module:", current)})
        fixes_applied += 1
    script = {"turns": turns, "logs": records}

    base = _true_metrics(rng)
    dialect = rng.choice(("canonical", "dc"))
    (out / "rpt" / f"{name}_base.rpt").write_text(render_report(rng, name, base, dialect))
    entry = [f"  - spec: specs/{name}.json", f"    baseline_report: rpt/{name}_base.rpt"]
    fact = {
        "status": "Pass" if c["verify"][-1] == "Pass" else c["verify"][-1].replace("FunctionalFail", "Fail"),
        "final_status": "Pass" if c["verify"][-1] == "Pass" else "BudgetExhausted",
        "verify_kinds": c["verify"],
        "iterations_used": len(c["verify"]),
        "fix_iterations": fixes_applied,
        "llm_calls": len(turns),
        "final_rtl": current,
        "base": {k: str(v) for k, v in base.items()},
    }
    if "goal" in c:
        goal = c["goal"]
        opt = _optimized(rng, base)
        (out / "rpt" / f"{name}_opt_{goal}.rpt").write_text(render_report(rng, name, opt, dialect))
        entry += ["    optimized_reports:", f"      {goal}: rpt/{name}_opt_{goal}.rpt"]
        variant = code(100, [f"apply the {goal} technique"])
        opt_turns = [{"role": "Optimizer", "reply": _fenced(f"Here is the {goal}-optimized module:", variant)}]
        opt_records = []
        for j, kind in enumerate(c["opt_verify"]):
            opt_records.append(_record(rng, kind, c["sizes"][("opt_verify", j)], j))
            if kind != "Pass":
                fixes = rng.sample(_FIX_TEXTS, c["fixes"][0])
                opt_turns.append({"role": "Evaluator", "reply": "\n".join(
                    f"{k}. {f.capitalize()}." for k, f in enumerate(fixes, 1))})
                variant = code(101 + j, fixes)
                opt_turns.append({"role": "Programmer", "reply": _fenced("Fixed:", variant)})
        script["opt_turns"] = opt_turns
        script["opt_logs"] = opt_records
        fact["optimize"] = {
            "goal": goal,
            "llm_calls": len(opt_turns),
            "verify_calls": len(c["opt_verify"]),
            "final_rtl": variant,
            "opt": {k: str(v) for k, v in opt.items()},
        }
    manifest.extend(entry)
    (out / "scripts" / f"{name}.json").write_text(json.dumps(script))
    return fact


# --- inspect_large ---------------------------------------------------------------

_SHAPES = ("ripple", "array", "behavioural")


def gen_inspect(workload: str, seed: int, out: Path) -> dict:
    """Per shape, one source on each point of a fixed geometric size grid,
    jittered by the seed; the seed also draws every structural detail. The
    order of the sources is fixed per workload, because allocator state
    left by one large source changes the cost of the next."""
    layout = random.Random(f"{workload}:layout")
    rng = _rng(workload, seed, "inspect")
    lo, hi = SIZES_BYTES
    k = PER_SHAPE
    grid = [lo * (hi / lo) ** (j / (k - 1)) for j in range(k)]
    (out / "src").mkdir(parents=True, exist_ok=True)
    (out / "rpt").mkdir(parents=True, exist_ok=True)
    facts = {"workload": workload, "kind": "inspect", "cases": {}}
    order = [(shape, j) for shape in _SHAPES for j in range(k)]
    layout.shuffle(order)
    for idx, (shape, j) in enumerate(order):
        target = int(grid[j] * (1 + SIZE_JITTER * (2 * rng.random() - 1)))
        name = f"c{idx:02d}_{shape}_{j}"
        tag = f"{seed}_{idx}"
        if shape == "ripple":
            text, fact = rtl.ripple_netlist(rng, target, tag)
        elif shape == "array":
            text, fact = rtl.array_multiplier(rng, target, tag)
        else:
            text, fact = rtl.behavioural(rng, target, tag, with_fsm=j % 3 != 1)
        (out / "src" / f"{name}.v").write_text(text)
        base = _true_metrics(rng)
        (out / "rpt" / f"{name}.rpt").write_text(render_report(rng, name, base, "canonical"))
        fact.update(shape="netlist" if shape != "behavioural" else "behavioural",
                    bytes=len(text.encode()))
        facts["cases"][name] = fact
    return facts


def generate(workload: str, seed: int, out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    if workload in SUITES:
        facts = gen_suite(workload, seed, out)
    else:
        facts = gen_inspect(workload, seed, out)
    (out / "facts.json").write_text(json.dumps(facts))
    return facts
