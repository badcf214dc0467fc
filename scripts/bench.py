#!/usr/bin/env python3
"""Measure routing and model I/O at scale, and append one point to ``BENCH_scale.json``.

Generates one ``dafr.synth`` dataset, trains a model on every row and takes:

- ``route_left_out`` of ``--rows`` training rows, drawn as ``dafr train``'s
  summary draws them: the median time of ``--repeats`` runs, then one more,
  untimed run under tracemalloc for its peak and the share of query x
  reference cells handed to the distance kernel (wrapping ``simfn._k_nearest``);
- ``route_many`` of ``--rows`` queries generated from the next seed: the
  median time of ``--repeats`` runs and the tracemalloc peak of one more;
- ``save_model`` into a temporary directory: its time and the file's size;
- ``load_model`` in a fresh child: its time and its peak resident set above
  the child's import floor in MiB (VmHWM in /proc/self/status, so Linux only).

Digests of the routed labels and distances and of the loaded matrix and
labels let two versions' points be compared. A point also holds the
arguments, the usable CPU count, the Python and numpy versions, the commit
and a digest of the imported dafr sources. BLAS runs on one thread. The
point is appended to ``BENCH_scale.json`` in the working directory and
printed as the last line.

    PYTHONPATH=src python3 scripts/bench.py --kind hetero_tails --n 100000 --p 8
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from time import perf_counter

# one BLAS thread, here and in the child: set before numpy loads OpenBLAS
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

import numpy as np  # noqa: E402

from dafr import simfn  # noqa: E402
from dafr.cli import SUMMARY_ROWS, SUMMARY_STREAM  # noqa: E402
from dafr.dataset import seeded_sample  # noqa: E402
from dafr.pipeline import dafr_train, load_model, save_model  # noqa: E402
from dafr.synth import KINDS, SynthConfig, generate  # noqa: E402

OUT = Path("BENCH_scale.json")


def digest(*arrays) -> str:
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()[:16]


def timed(repeats: int, fn, *args):
    """The last result of ``repeats`` calls, and their median time."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        result = fn(*args)
        times.append(perf_counter() - start)
    return result, float(np.median(times))


def traced(fn, *args):
    """The result of one call, and its tracemalloc peak in MB."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def route(args, router) -> dict:
    n = router.n_references
    rows = seeded_sample(n, min(args.rows, n), args.seed ^ SUMMARY_STREAM)
    labels, left_out_s = timed(args.repeats, router.route_left_out, rows)
    cells, k_nearest = 0, simfn._k_nearest

    def counting(refs, ref_sq, Z, *rest):
        nonlocal cells
        cells += Z.shape[0] * refs.shape[0]
        return k_nearest(refs, ref_sq, Z, *rest)

    simfn._k_nearest = counting
    try:
        again, left_out_peak = traced(router.route_left_out, rows)
    finally:
        simfn._k_nearest = k_nearest
    if not np.array_equal(labels, again):
        raise SystemExit("route_left_out labels differ between runs")

    queries = generate(SynthConfig(kind=args.kind, n=rows.size, p=args.p,
                                   seed=args.seed + 1)).features
    (routed, dists), many_s = timed(args.repeats, router.route_many, queries)
    return {
        "route_left_out_s": left_out_s,
        "route_left_out_peak_mb": left_out_peak,
        "cells_scanned": cells / (rows.size * n),
        "route_left_out_sha256": digest(labels.astype(np.int64)),
        "route_many_s": many_s,
        "route_many_peak_mb": traced(router.route_many, queries)[1],
        "route_many_sha256": digest(routed.astype(np.int64), dists),
    }


def peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024


def load(path) -> dict:
    floor = peak_rss_mb()
    router, seconds = timed(1, lambda: load_model(path).router)
    return {
        "load_model_s": seconds,
        "load_model_peak_mb": peak_rss_mb() - floor,
        "points_sha256": digest(router.reference_points),
        "model_labels_sha256": digest(router.labels.astype(np.int64)),
    }


def model_io(model) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        facts = {"save_model_s": timed(1, save_model, model, path)[1],
                 "model_file_mb": path.stat().st_size / 1e6}
        out = subprocess.run([sys.executable, __file__, "--model", str(path)],
                             check=True, capture_output=True, text=True).stdout
    return {**facts, **json.loads(out.splitlines()[-1])}


def code_stamp() -> dict:
    """A digest of the imported dafr's sources, and the commit of its checkout if it
    has one, marked ``-dirty`` when the package differs from that commit."""
    package = Path(simfn.__file__).parent
    files = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        files.update(f"{path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}\n".encode())

    def git(*argv) -> str:
        return subprocess.run(["git", *argv], cwd=package, check=True,
                              capture_output=True, text=True).stdout.strip()

    try:
        commit = git("rev-parse", "HEAD") + ("-dirty" if git("status", "--porcelain", ".") else "")
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {"commit": commit, "code_sha256": files.hexdigest()}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--kind", choices=KINDS, default="hetero_tails")
    ap.add_argument("--n", type=int, default=100_000, help="training rows")
    ap.add_argument("--p", type=int, default=8, help="feature count")
    ap.add_argument("--rows", type=int, default=SUMMARY_ROWS, help="rows routed")
    ap.add_argument("--k", type=int, default=5, help="router neighbours")
    ap.add_argument("--seed", type=int, default=0, help="data and row-draw seed")
    ap.add_argument("--repeats", type=int, default=3, help="timed runs")
    ap.add_argument("--model", help=argparse.SUPPRESS)  # the load child's model file
    args = ap.parse_args()
    if args.model:
        print(json.dumps(load(args.model)))
        return

    model = dafr_train(generate(SynthConfig(kind=args.kind, n=args.n, p=args.p,
                                            seed=args.seed)), k=args.k)
    point = {
        "args": {name: value for name, value in vars(args).items() if name != "model"},
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **code_stamp(),
        **route(args, model.router),
        **model_io(model),
    }
    point = {key: round(v, 4) if isinstance(v, float) else v for key, v in point.items()}
    doc = json.loads(OUT.read_text()) if OUT.exists() else {"points": []}
    doc["points"].append(point)
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(point))


if __name__ == "__main__":
    main()
