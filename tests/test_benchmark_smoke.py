"""The benchmark in ``perfbench/`` still runs against the current package.

Its traced run wraps dafr's public functions and router methods by name, so
removing or renaming one of them breaks the benchmark; this catches that.
No timing is checked: the timeout only guards against a hang.
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def test_benchmark_smoke_run_passes():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
