#!/usr/bin/env python3
"""Compare routed segment models against a single global fit.

For each seed: generate piecewise data, hold out a test split, train,
and report held-out MAPE for the baseline, the routed model, and an
oracle that routes by true segment (the routing-error-free ceiling).
"""

import argparse
from dataclasses import replace

from dafr.experiments import compare_run, summarize_compare
from dafr.synth import SynthConfig, generate


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=20, help="run seeds 0..N-1")
    ap.add_argument("--n", type=int, default=2000, help="rows per dataset")
    ap.add_argument("--p", type=int, default=3, help="feature count")
    ap.add_argument("--sigma", type=float, default=1.0, help="noise level")
    ap.add_argument("--test-fraction", type=float, default=0.2)
    ap.add_argument("--k", type=int, default=5, help="router neighbours")
    ap.add_argument("--ridge", type=float, default=0.0, help="ridge penalty")
    args = ap.parse_args()

    config = SynthConfig(kind="piecewise_three", n=args.n, p=args.p,
                         noise_sigma=args.sigma)
    runs = [compare_run(generate(replace(config, seed=seed)), seed,
                        test_fraction=args.test_fraction, k=args.k, ridge=args.ridge)
            for seed in range(args.seeds)]

    print(f"{'seed':>4}  {'baseline':>9}  {'routed':>9}  {'oracle':>9}  "
          f"{'front':>16}  {'back':>16}  win")
    for r in runs:
        base, routed = r.baseline.bathtub, r.dafr.bathtub
        print(f"{r.seed:>4}  {r.baseline.mape:9.3f}  {r.dafr.mape:9.3f}  "
              f"{r.oracle_mape:9.3f}  "
              f"{base.front_mean:7.2f}->{routed.front_mean:<7.2f}  "
              f"{base.back_mean:7.2f}->{routed.back_mean:<7.2f}  "
              f"{'yes' if r.improved else 'NO'}")

    agg = summarize_compare(runs)
    print(f"wins {agg['wins']}/{agg['seeds']}  "
          f"mean MAPE baseline {agg['baseline_mape_mean']:.3f}  "
          f"routed {agg['dafr_mape_mean']:.3f}  "
          f"oracle {agg['oracle_mape_mean']:.3f}  "
          f"worst SSE margin {agg['worst_sse_margin']:.2e}")


if __name__ == "__main__":
    main()
