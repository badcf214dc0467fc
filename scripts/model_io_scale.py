#!/usr/bin/env python3
"""Time ``save_model`` and ``load_model``, and measure the load's memory, at scale.

Generates ``dafr.synth`` data and trains a model on every row in one child
process, which times ``save_model`` into a temporary directory. A second,
fresh child imports dafr, reads its peak resident set (VmHWM in
/proc/self/status, so Linux only) as the import floor, times ``load_model``
and reads the peak again. Prints both times, the file size, the load's peak
above the floor, and digests of the loaded reference matrix (its bits) and
labels, so runs of two versions can be compared.

    PYTHONPATH=src python3 scripts/model_io_scale.py --kind hetero_tails --n 100000 --p 8
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from dafr.synth import KINDS


def peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024


def save(args, path) -> dict:
    from dafr.pipeline import dafr_train, save_model
    from dafr.synth import SynthConfig, generate

    model = dafr_train(generate(SynthConfig(kind=args.kind, n=args.n, p=args.p, seed=args.seed)))
    start = perf_counter()
    save_model(model, path)
    return {"save_s": perf_counter() - start}


def load(path) -> dict:
    import numpy as np

    from dafr.pipeline import load_model

    floor = peak_rss_mb()
    start = perf_counter()
    router = load_model(path).router
    seconds = perf_counter() - start
    return {
        "load_s": seconds,
        "load_peak_mb": peak_rss_mb() - floor,
        "points_sha256": hashlib.sha256(router.reference_points.tobytes()).hexdigest()[:16],
        "labels_sha256": hashlib.sha256(router.labels.astype(np.int64).tobytes()).hexdigest()[:16],
    }


def child(step: str, args, path) -> dict:
    """Run one step in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, __file__, "--kind", args.kind, "--n", str(args.n),
           "--p", str(args.p), "--seed", str(args.seed), "--step", step, "--model", str(path)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, env=os.environ).stdout
    return json.loads(out.strip().splitlines()[-1])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--kind", choices=KINDS, default="hetero_tails")
    ap.add_argument("--n", type=int, default=100_000, help="training rows")
    ap.add_argument("--p", type=int, default=8, help="feature count")
    ap.add_argument("--seed", type=int, default=0, help="data seed")
    ap.add_argument("--step", choices=["save", "load"], help=argparse.SUPPRESS)
    ap.add_argument("--model", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if args.step:
        print(json.dumps(save(args, args.model) if args.step == "save" else load(args.model)))
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        facts = child("save", args, path)
        facts["file_mb"] = path.stat().st_size / 1e6
        facts.update(child("load", args, path))
    print(f"{args.kind} n={args.n} p={args.p} seed={args.seed}")
    print(f"save_model_s: {facts['save_s']:.3f}")
    print(f"load_model_s: {facts['load_s']:.3f}")
    print(f"file_mb: {facts['file_mb']:.2f}")
    print(f"load_peak_above_import_mb: {facts['load_peak_mb']:.1f}")
    print(f"points_sha256: {facts['points_sha256']}")
    print(f"labels_sha256: {facts['labels_sha256']}")


if __name__ == "__main__":
    main()
