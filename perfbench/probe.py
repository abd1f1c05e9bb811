"""Set-up probe: a fresh interpreter imports rtlflow, loads the technique
catalog and, for the suite workloads, the manifest, then prints `ready`
and the monotonic clock reading at that moment.

    python3 perfbench/probe.py INPUT_DIR

Run from the checkout root. The caller reads the monotonic clock just
before spawning the probe; the difference is the set-up time.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from rtlflow import bench, optimizer  # noqa: E402

optimizer.load_catalog()
manifest = Path(sys.argv[1]) / "suite.yaml"
if manifest.exists():
    bench.load_manifest(manifest)
print("ready", time.monotonic(), flush=True)
