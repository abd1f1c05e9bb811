"""The benchmark's traced mode wraps rtlflow functions by module attribute
(`perfbench/trace.py::install`). A rename of any wrapped name, or a
refactor that stops calling one through its module attribute, must fail
here, not only in the slow `perfbench/selfcheck.py`: a wrapper that never
opens a span silently zeroes the metrics derived from it."""

import json
import subprocess
import sys
from pathlib import Path

import rtlflow

ROOT = Path(rtlflow.__file__).resolve().parent.parent.parent

# scripted generate runs of both signal generator fixtures at budget 3, then
# one optimize run of the adder whose first variant fails and is fixed
RUNS = """
from collections import Counter
from rtlflow.engine import DesignSpec, PipelineBudget, RtlArtifact, run_pipeline
from rtlflow.gateway import Gateway, ScriptedBackend
from rtlflow.metrics import parse_report
from rtlflow.optimizer import OptimizationGoal, load_catalog, optimize
from rtlflow.toolchain import ScriptedToolchain, VerificationOutcome

fixtures, out = Path(sys.argv[1]), Path(sys.argv[2])
spec = DesignSpec.from_json(fixtures / "signal_generator_spec.json")
for name in ("signal_generator", "signal_generator_fail"):
    script = fixtures / "scripted" / name
    run_pipeline(spec, PipelineBudget(max_fix_iterations=3),
                 Gateway(ScriptedBackend.from_file(script / "turns.json")),
                 ScriptedToolchain.from_file(script / "outcomes.json"), out / name)
verilog = fixtures / "verilog"
cla = "```verilog\\n" + (verilog / "adder_16bit_cla.v").read_text() + "```"
turns = [("Optimizer", cla), ("Evaluator", "1. carry"),
         ("Programmer", cla.replace("```verilog\\n", "```verilog\\n// FIX 1: carry\\n"))]
outcomes = [VerificationOutcome("FunctionalFail", failing_checks=["ERROR: mismatch"]),
            VerificationOutcome("Pass")]
optimize(RtlArtifact((verilog / "adder_16bit.v").read_text()),
         parse_report((fixtures / "reports" / "adder_16bit_base.rpt").read_text()),
         OptimizationGoal("timing"), Gateway(ScriptedBackend(turns)),
         ScriptedToolchain(outcomes), PipelineBudget(), verilog / "adder_16bit_tb.v", out / "opt",
         load_catalog())
print(json.dumps(Counter(span.name for span in tracer.spans)))
"""

# spans per wrapped name; the names with none are never called by these runs
SPANS = {
    "gateway.send": 21,
    "engine.make_plan": 2,
    "engine.write_rtl": 2,
    "engine.review_rtl": 6,
    "engine.diagnose_failures": 5,
    "engine.apply_fixes": 5,
    "engine.parse_numbered_list": 7,
    "engine.extract_verilog": 8,
    "engine.extract_tags": 16,
    "inspect_rtl.fingerprint": 1,
    "optimizer.select_techniques": 1,
    "optimizer.build_icl_prompt": 1,
}


def test_trace_install_finds_every_wrapped_name(tmp_path):
    # a fresh interpreter, so the wrappers cannot leak into other tests
    code = (
        f"import json, sys; sys.path[:0] = [{str(ROOT / 'perfbench')!r}, {str(ROOT / 'src')!r}]\n"
        "from pathlib import Path\n"
        "import trace\n"
        "tracer = trace.Tracer(True)\n"
        "trace.install(tracer, 'behavioural')\n"
        + RUNS
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "tests" / "fixtures"), str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == SPANS
