"""Acceptance gate: six end-to-end criteria, each printing one PASS/FAIL
line on the real terminal so the verdicts survive pytest's capture."""

import random
import re
import shutil
import sys
import time

import pytest

from conftest import (
    FIXTURES,
    REPORTS,
    SCRIPTED,
    VERILOG,
    load_table3,
    read_events,
    scripted_gateway,
    scripted_toolchain,
)

from rtlflow.bench import success_rate
from rtlflow.engine import DesignSpec, PipelineBudget, run_pipeline
from rtlflow.gateway import Gateway, ScriptedBackend
from rtlflow.inspect_rtl import fingerprint
from rtlflow.metrics import (
    HEADLINE_METRICS,
    PpaMetrics,
    build_comparison,
    emit_canonical,
    parse_report,
)
from rtlflow.optimizer import OptimizationGoal, load_catalog, select_techniques
from rtlflow.toolchain import IcarusToolchain, ToolInvocation, classify


@pytest.fixture
def verdict(capfd):
    """Context-manager factory printing one PASS/FAIL line per criterion on
    the real terminal (capture is suspended for the write)."""

    class _V:
        def __init__(self, label):
            self.label = label

        def __enter__(self):
            self.start = time.perf_counter()
            return self

        @property
        def elapsed(self):
            return time.perf_counter() - self.start

        def __exit__(self, exc_type, exc, tb):
            status = "PASS" if exc_type is None else "FAIL"
            line = f"[acceptance] {self.label}: {status} ({self.elapsed:.2f}s)\n"
            with capfd.disabled():
                sys.stdout.write(line)
                sys.stdout.flush()
            return False

    return _V


def metrics_from(values: dict) -> PpaMetrics:
    return PpaMetrics(**{k: v for k, v in values.items() if v is not None})


def test_criterion_1_improvement_table_closure(verdict):
    """Every published improvement row is reproduced within 0.05 points
    from its baseline/optimized metric pairs."""
    with verdict("1 improvement-table closure (25 designs, +/-0.05)") as v:
        rows = load_table3()
        assert len(rows) == 25
        for row in rows:
            result = build_comparison(
                row["design"], metrics_from(row["baseline"]), metrics_from(row["optimized"])
            )
            for metric in HEADLINE_METRICS:
                expected = row["expected_pct"][metric]
                got = result.per_metric[metric]
                if expected is None:
                    assert got is None, f"{row['design']}/{metric}: expected N/A, got {got}"
                else:
                    assert got == pytest.approx(expected, abs=0.05), (
                        f"{row['design']}/{metric}: expected {expected}, got {got}"
                    )
        assert v.elapsed < 1.0


def test_criterion_2_success_rate_arithmetic(verdict):
    """Suite-level success percentage at one-decimal rounding."""
    with verdict("2 success-rate arithmetic (25/29 -> 86.2)") as v:
        assert success_rate(25, 29) == 86.2
        for n in range(1, 101):
            assert success_rate(n, n) == 100.0
        assert v.elapsed < 1.0


def test_criterion_3_scripted_pipeline(tmp_path, verdict):
    """Offline replay of the generation loop: pass on the second verification
    with one three-fix diagnosis, and budget exhaustion when nothing passes.
    No network, no EDA tools."""
    with verdict("3 scripted generation loop (pass@2 + budget exhaustion)") as v:
        spec = DesignSpec.from_json(FIXTURES / "signal_generator_spec.json")

        gateway = scripted_gateway(SCRIPTED / "signal_generator", tmp_path / "a")
        toolchain = scripted_toolchain(SCRIPTED / "signal_generator")
        ws = tmp_path / "a" / "ws"
        revisions, final = run_pipeline(spec, PipelineBudget(), gateway, toolchain, ws)
        assert final == "Pass"
        assert len(revisions) == 2
        diagnoses = [e for e in read_events(ws) if e["event"] == "diagnosis"]
        assert len(diagnoses) == 1
        assert len(diagnoses[0]["fixes"]) == 3
        rev1 = (ws / "rev_1.v").read_text()
        for k in (1, 2, 3):
            assert f"// FIX {k}:" in rev1

        gateway = scripted_gateway(SCRIPTED / "signal_generator_fail", tmp_path / "b")
        toolchain = scripted_toolchain(SCRIPTED / "signal_generator_fail")
        revisions, final = run_pipeline(
            spec, PipelineBudget(max_fix_iterations=3), gateway, toolchain, tmp_path / "b" / "ws"
        )
        assert final == "BudgetExhausted"
        assert len(revisions) == 4
        assert v.elapsed < 5.0


def test_criterion_4_structure_aware_selection(verdict):
    """Technique selection on the ripple-adder case study hits the expected
    pair for each optimization goal."""
    with verdict("4 structure-aware technique selection (3 goals)") as v:
        catalog = load_catalog()
        fp = fingerprint((VERILOG / "adder_16bit.v").read_text())
        report = parse_report((REPORTS / "adder_16bit_base.rpt").read_text())

        timing = select_techniques(fp, report, OptimizationGoal("timing"), catalog)
        assert timing.techniques == ["carry_lookahead_restructuring", "pipelining"]

        power = select_techniques(fp, report, OptimizationGoal("power"), catalog)
        assert power.techniques == ["operand_isolation", "clock_gating"]

        area = select_techniques(fp, report, OptimizationGoal("area"), catalog)
        assert "resource_sharing" in area.techniques
        assert len(area.techniques) <= 2
        assert v.elapsed < 1.0


def test_criterion_5_parser_robustness(verdict):
    """Report round-trips, total log classification and comment-immune
    fingerprints under randomized inputs."""
    with verdict("5 parser robustness (round-trip, totality, invariance)") as v:
        # (a) canonical round-trip for every parseable report fixture
        for path in sorted(REPORTS.glob("*.rpt")):
            if path.name == "missing_leakage.rpt":
                continue
            metrics = parse_report(path.read_text())
            again = parse_report(emit_canonical(metrics))
            assert again == metrics, path.name

        # (b) classification is total over 1000 random tool logs
        rng = random.Random(42)
        words = ["ok", "ERROR", "fail", "PASS", "mismatch", "=== TEST PASS ===",
                 "x", "warning: foo", "tb.v:12: syntax error", ""]
        for _ in range(1000):
            comp = ToolInvocation(
                "Compile", ["iverilog"], ".", rng.choice([0, 0, 1, 2, -6]),
                "", "\n".join(rng.choices(words, k=rng.randint(0, 6))), 0.01,
            )
            sim = None
            if rng.random() < 0.8:
                sim = ToolInvocation(
                    "Simulate", ["vvp"], ".", rng.choice([0, 0, 1, -9]),
                    "\n".join(rng.choices(words, k=rng.randint(0, 8))),
                    "", 0.01, timed_out=rng.random() < 0.1,
                )
            outcome = classify(comp, sim)
            assert outcome.kind in ("Pass", "SyntaxFail", "FunctionalFail", "ToolError")

        # (c) fingerprints are invariant under comment/whitespace mutation
        sources = [
            (VERILOG / name).read_text()
            for name in ("adder_16bit.v", "adder_16bit_cla.v", "fsm_example.v",
                         "pipeline_example.v", "wrong_adder.v")
        ]
        rng = random.Random(7)
        for source in sources:
            base = fingerprint(source).to_dict()
            for _ in range(100):
                lines = []
                for line in source.splitlines():
                    if rng.random() < 0.3:
                        lines.append(f"  // noise {rng.randint(0, 999)} always posedge error +")
                    if rng.random() < 0.2:
                        line = "  " + line + f" /* tail {rng.randint(0, 99)} ? */"
                    lines.append(line)
                assert fingerprint("\n".join(lines)).to_dict() == base
        assert v.elapsed < 30.0


@pytest.mark.skipif(
    shutil.which("iverilog") is None or shutil.which("vvp") is None,
    reason="Icarus Verilog not installed",
)
def test_criterion_6_end_to_end_smoke(tmp_path, verdict):
    """Full generate flow against the real simulator with a scripted model:
    canned adder implementation must compile, simulate and pass."""
    with verdict("6 end-to-end smoke with real simulator") as v:
        spec = DesignSpec.from_json(FIXTURES / "adder_16bit_spec.json")
        backend = ScriptedBackend.from_file(SCRIPTED / "adder_16bit" / "turns.json")
        gateway = Gateway(backend, transcript_path=tmp_path / "t.jsonl")
        toolchain = IcarusToolchain()
        revisions, final = run_pipeline(spec, PipelineBudget(), gateway, toolchain, tmp_path / "ws")
        assert final == "Pass"
        assert len(revisions) == 1
        rev0 = (tmp_path / "ws" / "rev_0.v").read_text()
        assert re.search(r"//\s*STEP 1:", rev0)
        assert v.elapsed < 60.0


def test_acceptance_note_when_simulator_missing(capfd):
    """Emit an explicit line when criterion 6 is skipped so the gate's
    terminal output always has six verdict lines."""
    if shutil.which("iverilog") is None or shutil.which("vvp") is None:
        with capfd.disabled():
            sys.stdout.write(
                "[acceptance] 6 end-to-end smoke with real simulator: "
                "SKIP (iverilog/vvp not installed)\n"
            )
            sys.stdout.flush()
