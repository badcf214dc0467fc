"""The scripts in ``scripts/`` still run against the current package.

They read record fields and call functions by name, so a rename breaks them
without failing any other test. Each runs at a small size and must exit 0;
the experiment scripts' output is not checked, ``bench.py``'s points are.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SMALL = ["--seeds", "2", "--n", "300"]
# what a BENCH_scale.json point holds
POINT_KEYS = {
    "args", "cpus", "python", "numpy", "commit", "code_sha256",
    "route_left_out_s", "route_left_out_peak_mb", "cells_scanned", "route_left_out_sha256",
    "route_many_s", "route_many_peak_mb", "route_many_sha256",
    "save_model_s", "model_file_mb",
    "load_model_s", "load_model_peak_mb", "points_sha256", "model_labels_sha256",
}


def run_script(script, *args, cwd=None):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, timeout=300, cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return proc.stdout


PROC_SKIP = pytest.mark.skipif(not Path("/proc/self/status").exists(),
                               reason="reads VmHWM from /proc/self/status")


# bench.py took over the measurements of route_scale.py and model_io_scale.py;
# their cases keep their ids and arguments and now run bench.py
@pytest.mark.parametrize("script, args", [
    ("run_bathtub.py", SMALL),
    ("run_improvement.py", SMALL),
    ("run_robustness.py", SMALL),
    pytest.param("bench.py", ["--n", "3000", "--p", "3", "--repeats", "1"],
                 marks=PROC_SKIP, id="route_scale.py-args3"),
    pytest.param("bench.py", ["--n", "3000", "--p", "3"],
                 marks=PROC_SKIP, id="model_io_scale.py-args4"),
])
def test_script_runs(script, args, tmp_path):
    run_script(script, *args, cwd=tmp_path)


@PROC_SKIP
def test_bench_appends_a_point_per_run(tmp_path):
    printed = [run_script("bench.py", "--n", "3000", "--p", "3", "--repeats", "1", cwd=tmp_path)
               for _ in range(2)]
    points = json.loads((tmp_path / "BENCH_scale.json").read_text())["points"]
    assert [json.loads(out.splitlines()[-1]) for out in printed] == points
    assert [set(point) for point in points] == [POINT_KEYS, POINT_KEYS]
    assert points[0]["args"] == {"kind": "hetero_tails", "n": 3000, "p": 3, "rows": 2000,
                                 "k": 5, "seed": 0, "repeats": 1}
    digests = [{key: v for key, v in point.items() if key.endswith("_sha256")}
               for point in points]
    assert len(digests[0]) == 5 and digests[0] == digests[1]
