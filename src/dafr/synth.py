"""Synthetic datasets and target perturbations for the experiment suite.

Three generators: a single global line (the null case), three joined lines
over low/mid/high target ranges (segmentation should win), and a single
line whose noise blows up in both target tails (a single fit shows the
bathtub error profile). Two injectors perturb targets in the tails or the
middle of the target distribution.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dataset import Dataset
from .metrics import quantile

KINDS = ("single_line", "piecewise_three", "hetero_tails")

# piecewise_three's (intercept, slope) pieces meet at the breakpoints:
# 2+3*1 = -5+10*1 and -5+10*2 = -25+20*2
BREAKPOINTS = (1.0, 2.0)
PIECES = ((2.0, 3.0), (-5.0, 10.0), (-25.0, 20.0))
# hetero_tails scales the noise outside these target quantiles by the factor
TAIL_QUANTILE = 0.2
TAIL_NOISE_FACTOR = 5.0


@dataclass(frozen=True)
class SynthConfig:
    """Full recipe for one synthetic dataset; same config, same bytes."""

    kind: str = "single_line"
    n: int = 2000
    p: int = 3
    noise_sigma: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.n < 1 or self.p < 1:
            raise ValueError(f"need n >= 1 and p >= 1, got n={self.n}, p={self.p}")
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be non-negative, got {self.noise_sigma}")

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "p": self.p,
            "noise_sigma": self.noise_sigma,
            "seed": self.seed,
            "breakpoints": list(BREAKPOINTS),
            "pieces": [list(piece) for piece in PIECES],
            "tail_noise_factor": TAIL_NOISE_FACTOR,
            "tail_quantile": TAIL_QUANTILE,
        }


def _finish(X: np.ndarray, y: np.ndarray, p: int) -> Dataset:
    # keep every target at least 1 so percentage error stays defined
    shift = max(0.0, 1.0 - float(y.min()))
    names = tuple(f"x{j}" for j in range(p))
    return Dataset(X, y + shift, names, "y")


def generate(config: SynthConfig) -> Dataset:
    """Deterministic dataset for the configured generator kind."""
    rng = np.random.default_rng(config.seed)
    n, p = config.n, config.p
    if config.kind == "piecewise_three":
        X = np.empty((n, p))
        X[:, 0] = rng.uniform(0.0, 1.5 * BREAKPOINTS[1], size=n)
        if p > 1:
            X[:, 1:] = rng.uniform(0.0, 1.0, size=(n, p - 1))
        region = np.digitize(X[:, 0], BREAKPOINTS)
        intercepts, slopes = np.array(PIECES).T
        y0 = intercepts[region] + slopes[region] * X[:, 0]
        if p > 1:
            y0 = y0 + 0.5 * X[:, 1:].sum(axis=1)
        y = y0 + config.noise_sigma * rng.normal(size=n)
        return _finish(X, y, p)
    # single line; hetero_tails amplifies the noise of tail rows
    X = rng.uniform(0.0, 1.0, size=(n, p))
    y0 = 20.0 + 10.0 * X.sum(axis=1)
    noise = config.noise_sigma
    if config.kind == "hetero_tails":
        tails = (y0 < quantile(y0, TAIL_QUANTILE)) | (y0 > quantile(y0, 1.0 - TAIL_QUANTILE))
        noise = noise * np.where(tails, TAIL_NOISE_FACTOR, 1.0)
    y = y0 + noise * rng.normal(size=n)
    return _finish(X, y, p)


def _perturbed(ds: Dataset, fraction: float, seed: int, deciles, shift) -> Dataset:
    """``ds`` with ``shift(y, rows, rng)`` added to the targets of
    round(fraction*n) rows, or all if fewer, drawn without replacement by a
    generator seeded with ``seed`` from the given target deciles (0-based,
    rows in stable target order, decile d being [d*n//10, (d+1)*n//10));
    ``ds`` itself when the budget rounds to 0."""
    y, n = ds.target, ds.n_rows
    if np.ptp(y) == 0.0:
        raise ValueError("degenerate target: all values equal, deciles undefined")
    budget = int(round(fraction * n))
    if budget == 0:
        return ds
    order = np.argsort(y, kind="stable")
    pool = np.concatenate([order[d * n // 10:(d + 1) * n // 10] for d in deciles])
    rng = np.random.default_rng(seed)
    rows = rng.choice(pool, size=min(budget, len(pool)), replace=False)
    new_y = y.copy()
    new_y[rows] += shift(y, rows, rng)
    return replace(ds, target=new_y)


def inject_tail_outliers(ds: Dataset, fraction: float = 0.05,
                         magnitude: float = 4.0, seed: int = 0) -> Dataset:
    """Push round(fraction*n) targets from the outer deciles away from the
    median by magnitude standard deviations. Features untouched."""
    if not 0.0 < fraction <= 0.2:
        raise ValueError(f"fraction must lie in (0, 0.2], got {fraction}")
    if magnitude <= 0:
        raise ValueError(f"magnitude must be positive, got {magnitude}")

    def away_from_median(y, rows, rng):
        delta = magnitude * float(y.std(ddof=1))
        return np.where(y[rows] >= float(np.median(y)), delta, -delta)

    return _perturbed(ds, fraction, seed, (0, 9), away_from_median)


def inject_mid_noise(ds: Dataset, fraction: float = 0.05,
                     sigma: float = 1.0, seed: int = 0) -> Dataset:
    """Add Gaussian noise of sigma target-stddevs to round(fraction*n) rows
    drawn from the middle target deciles. Features untouched."""
    if not 0.0 < fraction <= 0.5:
        raise ValueError(f"fraction must lie in (0, 0.5], got {fraction}")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")

    def noise(y, rows, rng):
        return sigma * float(y.std(ddof=1)) * rng.normal(size=rows.shape[0])

    return _perturbed(ds, fraction, seed, (3, 4, 5, 6), noise)
