"""The benchmark's traced mode wraps rtlflow functions by module attribute
(`perfbench/trace.py::install`). A rename of any wrapped name must fail
here, not only in the slow `perfbench/selfcheck.py`."""

import subprocess
import sys
from pathlib import Path

import rtlflow

ROOT = Path(rtlflow.__file__).resolve().parent.parent.parent


def test_trace_install_finds_every_wrapped_name():
    # a fresh interpreter, so the wrappers cannot leak into other tests
    code = (
        f"import sys; sys.path[:0] = [{str(ROOT / 'perfbench')!r}, {str(ROOT / 'src')!r}]\n"
        "import trace\n"
        "trace.install(trace.Tracer(True), 'behavioural')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
