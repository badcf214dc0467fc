"""The scripts in ``scripts/`` still run against the current package.

They read record fields and call functions by name, so a rename breaks them
without failing any other test. Each runs at a small size and must exit 0;
its output is not checked.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SMALL = ["--seeds", "2", "--n", "300"]


@pytest.mark.parametrize("script, args", [
    ("run_bathtub.py", SMALL),
    ("run_improvement.py", SMALL),
    ("run_robustness.py", SMALL),
    ("route_scale.py", ["--n", "3000", "--p", "3", "--repeats", "1"]),
    pytest.param("model_io_scale.py", ["--n", "3000", "--p", "3"], marks=pytest.mark.skipif(
        not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc/self/status")),
])
def test_script_runs(script, args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
