"""Seeded experiment drivers comparing baseline and segmented fits.

Three batteries: bathtub reproduction (does a single fit show tail-heavy
decile error), held-out improvement (does routing beat the baseline; one
``compare_run`` per seed), and robustness (does mid-distribution noise move
held-out error less than tail outliers of the same row budget).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .dataset import Dataset, train_test_split
from .metrics import BathtubReport, bathtub_report, mape
from .pipeline import (
    DafrModel,
    SegmentSpec,
    SideReport,
    dafr_score,
    dafr_score_oracle,
    dafr_train,
    diagnose,
    segment_assign,
)
from .simfn import SegmentLabel
from .synth import SynthConfig, generate, inject_mid_noise, inject_tail_outliers


def segment_sse_margin(model: DafrModel, train: Dataset) -> float:
    """Worst relative excess of a segment model's training SSE over the
    baseline's SSE on the same rows. Least squares guarantees this stays
    at or below rounding noise; anything above ~1e-9 is a solver bug."""
    X, y = train.features, train.target
    labels = segment_assign(y, model.spec)
    base_err = y - model.baseline.predict(X)
    seg_err = y - dafr_score_oracle(model, X, y)
    worst = 0.0
    for seg in SegmentLabel:
        mask = labels == int(seg)
        if not mask.any():
            continue
        sse_base = float(np.sum(base_err[mask] ** 2))
        sse_seg = float(np.sum(seg_err[mask] ** 2))
        if sse_base == 0.0:
            worst = max(worst, 0.0 if sse_seg <= 1e-18 else math.inf)
        else:
            worst = max(worst, (sse_seg - sse_base) / sse_base)
    return worst


@dataclass(frozen=True)
class BathtubRun:
    """Baseline decile-error shape on one generated dataset."""

    seed: int
    bathtub: BathtubReport
    sse_margin: float


def bathtub_runs(seeds: Iterable[int], config: SynthConfig,
                 k: int = 5, ridge: float = 0.0) -> list[BathtubRun]:
    """Train on fresh data per seed; report the baseline profile shape."""
    runs = []
    for seed in seeds:
        ds = generate(replace(config, seed=seed))
        model = dafr_train(ds, ridge=ridge, k=k)
        runs.append(BathtubRun(seed, bathtub_report(model.train_profile_before),
                               segment_sse_margin(model, ds)))
    return runs


@dataclass(frozen=True)
class CompareRun:
    """Held-out baseline-vs-routed comparison for one seed."""

    seed: int
    baseline: SideReport
    dafr: SideReport
    oracle_mape: float
    sse_margin: float

    @property
    def improved(self) -> bool:
        return self.dafr.mape < self.baseline.mape


def compare_run(ds: Dataset, seed: int, test_fraction: float = 0.2,
                k: int = 5, spec: SegmentSpec | None = None,
                ridge: float = 0.0, n_bins: int = 10) -> CompareRun:
    """Split, train, and evaluate one dataset: one row of the CLI compare
    table and of the improvement script."""
    train, test = train_test_split(ds, test_fraction, seed=seed)
    model = dafr_train(train, ridge=ridge, k=k, spec=spec, n_bins=n_bins)
    report = diagnose(model, test, n_bins=n_bins)
    oracle = mape(test.target, dafr_score_oracle(model, test.features, test.target))
    return CompareRun(seed, report.baseline, report.dafr, oracle,
                      segment_sse_margin(model, train))


@dataclass(frozen=True)
class RobustnessRun:
    """Held-out error of models trained on clean, tail-injected, and
    mid-noise-injected versions of the same training rows."""

    seed: int
    clean_mape: float
    tail_mape: float
    mid_mape: float

    @property
    def tail_change(self) -> float:
        return abs(self.tail_mape - self.clean_mape)

    @property
    def mid_change(self) -> float:
        return abs(self.mid_mape - self.clean_mape)

    @property
    def stable(self) -> bool:
        return self.mid_change < self.tail_change


def robustness_runs(seeds: Iterable[int], config: SynthConfig,
                    test_fraction: float = 0.2, k: int = 5,
                    fraction: float = 0.05, magnitude: float = 4.0,
                    sigma: float = 1.0) -> list[RobustnessRun]:
    """Equal row budgets: round(fraction*n) rows get tail outliers in one
    arm and mid-distribution noise in the other."""
    runs = []
    for seed in seeds:
        ds = generate(replace(config, seed=seed))
        train, test = train_test_split(ds, test_fraction, seed=seed)

        def held_out_mape(train_variant: Dataset) -> float:
            model = dafr_train(train_variant, k=k)
            return mape(test.target, dafr_score(model, test.features).predictions)

        runs.append(RobustnessRun(
            seed=seed,
            clean_mape=held_out_mape(train),
            tail_mape=held_out_mape(
                inject_tail_outliers(train, fraction=fraction,
                                     magnitude=magnitude, seed=seed)),
            mid_mape=held_out_mape(
                inject_mid_noise(train, fraction=fraction, sigma=sigma, seed=seed)),
        ))
    return runs


def summarize_compare(runs: Sequence[CompareRun]) -> dict:
    """Aggregate means and the win count over a compare battery."""
    if not runs:
        raise ValueError("no runs to summarize")
    return {
        "seeds": len(runs),
        "wins": sum(r.improved for r in runs),
        "baseline_mape_mean": float(np.mean([r.baseline.mape for r in runs])),
        "dafr_mape_mean": float(np.mean([r.dafr.mape for r in runs])),
        "oracle_mape_mean": float(np.mean([r.oracle_mape for r in runs])),
        "worst_sse_margin": max(r.sse_margin for r in runs),
    }
