"""Keeps the benchmark from rotting: every workload at a tiny size, untraced
and traced, with all output checks. No timing bound is checked.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path


def test_smoke_runs_every_workload_and_checks_pass():
    run = Path(__file__).with_name("run.py")
    proc = subprocess.run([sys.executable, str(run), "--smoke"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # per workload: one untraced operation, then an untraced and a traced one
    assert result == {"correct": True, "attempted": 9, "failed": 0, "metrics": {}}
