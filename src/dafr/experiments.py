"""Seeded experiment drivers comparing baseline and segmented fits.

Three batteries: bathtub reproduction (does a single fit show tail-heavy
decile error), held-out improvement (does routing beat the baseline), and
robustness (does mid-distribution noise move held-out error less than
tail outliers of the same row budget).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .dataset import Dataset, train_test_split
from .metrics import bathtub_report, mape
from .pipeline import (
    DafrModel,
    SegmentSpec,
    dafr_score,
    dafr_score_oracle,
    dafr_train,
    diagnose,
    segment_assign,
)
from .simfn import SegmentLabel
from .synth import SynthConfig, generate, inject_mid_noise, inject_tail_outliers

DEFAULT_SEEDS = tuple(range(20))


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
    is_bathtub: bool
    front_mean: float
    mid_mean: float
    back_mean: float
    sse_margin: float


def bathtub_runs(seeds: Iterable[int] = DEFAULT_SEEDS,
                 config: SynthConfig | None = None,
                 k: int = 5, ridge: float = 0.0) -> list[BathtubRun]:
    """Train on fresh data per seed; report the baseline profile shape."""
    if config is None:
        config = SynthConfig(kind="hetero_tails")
    runs = []
    for seed in seeds:
        ds = generate(replace(config, seed=seed))
        model = dafr_train(ds, ridge=ridge, k=k)
        tub = bathtub_report(model.train_profile_before)
        runs.append(BathtubRun(
            seed=seed,
            is_bathtub=tub.is_bathtub,
            front_mean=tub.front_mean,
            mid_mean=tub.mid_mean,
            back_mean=tub.back_mean,
            sse_margin=segment_sse_margin(model, ds),
        ))
    return runs


@dataclass(frozen=True)
class CompareRun:
    """Held-out baseline-vs-routed comparison for one seed."""

    seed: int
    baseline_mape: float
    dafr_mape: float
    oracle_mape: float
    baseline_front_mean: float
    dafr_front_mean: float
    baseline_back_mean: float
    dafr_back_mean: float
    sse_margin: float

    @property
    def improved(self) -> bool:
        return self.dafr_mape < self.baseline_mape


def compare_run(ds: Dataset, seed: int, test_fraction: float = 0.2,
                k: int = 5, spec: SegmentSpec | None = None,
                ridge: float = 0.0, n_bins: int = 10) -> CompareRun:
    """Split, train, and evaluate one dataset; the ingredient behind both
    the improvement battery and the CLI compare table."""
    train, test = train_test_split(ds, test_fraction, seed=seed)
    model = dafr_train(train, ridge=ridge, k=k, spec=spec, n_bins=n_bins)
    report = diagnose(model, test, n_bins=n_bins)
    oracle = mape(test.target, dafr_score_oracle(model, test.features, test.target))
    front_b = back_b = front_d = back_d = math.nan
    if report.baseline_bathtub is not None:
        front_b = report.baseline_bathtub.front_mean
        back_b = report.baseline_bathtub.back_mean
        front_d = report.dafr_bathtub.front_mean
        back_d = report.dafr_bathtub.back_mean
    return CompareRun(
        seed=seed,
        baseline_mape=report.baseline_mape,
        dafr_mape=report.dafr_mape,
        oracle_mape=oracle,
        baseline_front_mean=front_b,
        dafr_front_mean=front_d,
        baseline_back_mean=back_b,
        dafr_back_mean=back_d,
        sse_margin=segment_sse_margin(model, train),
    )


def improvement_runs(seeds: Iterable[int] = DEFAULT_SEEDS,
                     config: SynthConfig | None = None,
                     test_fraction: float = 0.2, k: int = 5,
                     spec: SegmentSpec | None = None,
                     ridge: float = 0.0) -> list[CompareRun]:
    if config is None:
        config = SynthConfig(kind="piecewise_three")
    return [
        compare_run(generate(replace(config, seed=seed)), seed,
                    test_fraction=test_fraction, k=k, spec=spec, ridge=ridge)
        for seed in seeds
    ]


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


def robustness_runs(seeds: Iterable[int] = DEFAULT_SEEDS,
                    config: SynthConfig | None = None,
                    test_fraction: float = 0.2, k: int = 5,
                    fraction: float = 0.05, magnitude: float = 4.0,
                    sigma: float = 1.0) -> list[RobustnessRun]:
    """Equal row budgets: round(fraction*n) rows get tail outliers in one
    arm and mid-distribution noise in the other."""
    if config is None:
        config = SynthConfig(kind="hetero_tails")
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
        "baseline_mape_mean": float(np.mean([r.baseline_mape for r in runs])),
        "dafr_mape_mean": float(np.mean([r.dafr_mape for r in runs])),
        "oracle_mape_mean": float(np.mean([r.oracle_mape for r in runs])),
        "worst_sse_margin": max(r.sse_margin for r in runs),
    }
