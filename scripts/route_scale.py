#!/usr/bin/env python3
"""Time routing at scale: leave-one-out, the work behind ``dafr train``'s
summary, and held-out queries, the work behind ``dafr score``.

Generates ``dafr.synth`` data, trains a model on every row, draws ``--rows``
training rows the way the summary draws them, and routes them through
``KnnRouter.route_left_out``. Prints the in-process routing time (median of
``--repeats``), the share of query x reference cells handed to the distance
kernel (counted in one more, untimed run by wrapping ``simfn._k_nearest``),
and a digest of the labels. Then routes ``--rows`` queries generated from
the next seed through ``KnnRouter.route_many`` and prints its time (median
of ``--repeats``), its tracemalloc peak (one more run) and a digest of the
labels and distances, so runs of two versions can be compared.

    PYTHONPATH=src python3 scripts/route_scale.py --kind hetero_tails --n 100000 --p 3
"""

import argparse
import hashlib
import tracemalloc
from time import perf_counter

import numpy as np

from dafr import simfn
from dafr.cli import SUMMARY_ROWS, SUMMARY_STREAM
from dafr.dataset import seeded_sample
from dafr.pipeline import dafr_train
from dafr.synth import KINDS, SynthConfig, generate


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--kind", choices=KINDS, default="hetero_tails")
    ap.add_argument("--n", type=int, default=100_000, help="training rows")
    ap.add_argument("--p", type=int, default=8, help="feature count")
    ap.add_argument("--rows", type=int, default=SUMMARY_ROWS, help="rows routed")
    ap.add_argument("--k", type=int, default=5, help="router neighbours")
    ap.add_argument("--seed", type=int, default=0, help="data and row-draw seed")
    ap.add_argument("--repeats", type=int, default=3, help="timed runs")
    args = ap.parse_args()

    ds = generate(SynthConfig(kind=args.kind, n=args.n, p=args.p, seed=args.seed))
    router = dafr_train(ds, k=args.k).router
    n = router.n_references
    rows = seeded_sample(n, min(args.rows, n), args.seed ^ SUMMARY_STREAM)

    times = []
    for _ in range(args.repeats):
        start = perf_counter()
        labels = router.route_left_out(rows)
        times.append(perf_counter() - start)

    cells = 0
    k_nearest = simfn._k_nearest

    def counting(refs, ref_sq, Z, k, work):
        nonlocal cells
        cells += Z.shape[0] * refs.shape[0]
        return k_nearest(refs, ref_sq, Z, k, work)

    simfn._k_nearest = counting
    try:
        again = router.route_left_out(rows)
    finally:
        simfn._k_nearest = k_nearest
    if not np.array_equal(labels, again):
        raise SystemExit("labels differ between runs")

    digest = hashlib.sha256(labels.astype(np.int64).tobytes()).hexdigest()[:16]
    print(f"{args.kind} n={n} p={args.p} k={args.k} rows={rows.size}")
    print(f"route_left_out_s: {np.median(times):.4f} "
          f"(runs: {', '.join(f'{t:.4f}' for t in times)})")
    print(f"cells_scanned: {cells / (rows.size * n):.4f} of {rows.size} x {n}")
    print(f"labels_sha256: {digest}")

    queries = generate(SynthConfig(kind=args.kind, n=rows.size, p=args.p,
                                   seed=args.seed + 1)).features
    times = []
    for _ in range(args.repeats):
        start = perf_counter()
        routed, dists = router.route_many(queries)
        times.append(perf_counter() - start)
    tracemalloc.start()
    try:
        router.route_many(queries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    digest = hashlib.sha256(routed.astype(np.int64).tobytes() + dists.tobytes()).hexdigest()[:16]
    print(f"route_many_s: {np.median(times):.4f} (runs: {', '.join(f'{t:.4f}' for t in times)}; "
          f"{rows.size} queries, seed {args.seed + 1})")
    print(f"route_many_peak_mb: {peak / 1e6:.2f} (tracemalloc)")
    print(f"route_many_sha256: {digest} (labels and distances)")


if __name__ == "__main__":
    main()
