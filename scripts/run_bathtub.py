#!/usr/bin/env python3
"""Show that a single global fit leaves a bathtub-shaped error profile.

Generates fresh heavy-tail data for each seed, trains the full pipeline,
and reports the decile-MAPE shape of the baseline model: mean MAPE over
the front bins (1-3), mid bins (4-7), and back bins (8-10).
"""

import argparse

from dafr.experiments import bathtub_runs
from dafr.synth import SynthConfig


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=20, help="run seeds 0..N-1")
    ap.add_argument("--n", type=int, default=2000, help="rows per dataset")
    ap.add_argument("--p", type=int, default=3, help="feature count")
    ap.add_argument("--sigma", type=float, default=1.0, help="noise level")
    ap.add_argument("--k", type=int, default=5, help="router neighbours")
    ap.add_argument("--ridge", type=float, default=0.0, help="ridge penalty")
    args = ap.parse_args()

    config = SynthConfig(kind="hetero_tails", n=args.n, p=args.p,
                         noise_sigma=args.sigma)
    runs = bathtub_runs(range(args.seeds), config, k=args.k, ridge=args.ridge)

    print(f"{'seed':>4}  {'front':>8}  {'mid':>8}  {'back':>8}  bathtub")
    for r in runs:
        tub = r.bathtub
        print(f"{r.seed:>4}  {tub.front_mean:8.3f}  {tub.mid_mean:8.3f}  "
              f"{tub.back_mean:8.3f}  {'yes' if tub.is_bathtub else 'NO'}")
    hits = sum(r.bathtub.is_bathtub for r in runs)
    print(f"bathtub shape in {hits}/{len(runs)} seeds")


if __name__ == "__main__":
    main()
