"""Error metrics and the decile error profile that drives segmentation.

The profile sorts rows by their actual target value, slices them into
equal-count bins, and reports MAPE per bin. A fit that looks fine on
average but degrades at both extremes shows up as a bathtub-shaped curve.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import asdict, astuple, dataclass

import numpy as np

from .dataset import write_rows
from .errors import ZeroTargetError, json_float, json_int


def _pair(actual, predicted) -> tuple[np.ndarray, np.ndarray]:
    y = np.asarray(actual, dtype=float).ravel()
    yhat = np.asarray(predicted, dtype=float).ravel()
    if y.shape[0] == 0:
        raise ValueError("need at least one observation")
    if y.shape != yhat.shape:
        raise ValueError(f"length mismatch: {y.shape[0]} actual vs {yhat.shape[0]} predicted")
    return y, yhat


def mape(actual, predicted) -> float:
    """Mean absolute percentage error, in percent.

    Any zero actual value makes the ratio undefined, so it is a hard error
    rather than a silently skipped row.
    """
    y, yhat = _pair(actual, predicted)
    if np.any(y == 0.0):
        zeros = int(np.count_nonzero(y == 0.0))
        raise ZeroTargetError(
            f"{zeros} actual value(s) are zero; percentage error is undefined"
        )
    return float(100.0 * np.mean(np.abs(y - yhat) / np.abs(y)))


def rmse(actual, predicted) -> float:
    """Root mean squared error."""
    y, yhat = _pair(actual, predicted)
    return float(math.sqrt(np.mean((y - yhat) ** 2)))


def mad(actual, predicted) -> float:
    """Mean absolute deviation of predictions from actuals."""
    y, yhat = _pair(actual, predicted)
    return float(np.mean(np.abs(y - yhat)))


def quantile(values, q: float) -> float:
    """Order statistic with linear interpolation between closest ranks.

    For sorted v of length n the rank is h = (n-1)*q and the result is
    v[floor(h)] + (h - floor(h)) * (v[floor(h)+1] - v[floor(h)]).
    """
    v = np.sort(np.asarray(values, dtype=float).ravel())
    if v.shape[0] == 0:
        raise ValueError("need at least one value")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    h = (v.shape[0] - 1) * q
    lo = int(math.floor(h))
    if lo == v.shape[0] - 1:
        return float(v[lo])
    return float(v[lo] + (h - lo) * (v[lo + 1] - v[lo]))


@dataclass(frozen=True)
class ProfileBin:
    """One equal-count bin of the error profile; ``bin`` is 1-based."""

    bin: int
    count: int
    y_low: float
    y_high: float
    mape: float

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "ProfileBin":
        return cls(json_int(obj, "bin"), json_int(obj, "count"),
                   *(float(json_float(obj, key)) for key in ("y_low", "y_high", "mape")))


@dataclass(frozen=True)
class DecileProfile:
    """Per-bin MAPE over rows grouped by ascending actual target value."""

    bins: tuple[ProfileBin, ...]
    overall_mape: float

    @property
    def n_bins(self) -> int:
        return len(self.bins)

    @property
    def bin_mapes(self) -> np.ndarray:
        return np.array([b.mape for b in self.bins])

    @property
    def counts(self) -> np.ndarray:
        return np.array([b.count for b in self.bins], dtype=int)

    def to_json(self) -> list[dict]:
        return [b.to_json() for b in self.bins]

    @classmethod
    def from_json(cls, rows: list[dict]) -> "DecileProfile":
        """Profile whose overall MAPE is the count-weighted mean of its bins,
        which are numbered 1..n in order and each hold at least one row, as
        ``decile_mape_profile`` makes them."""
        bins = tuple(ProfileBin.from_json(r) for r in rows)
        total = sum(b.count for b in bins)
        if total < 1:
            raise ValueError("no profile rows")
        if [b.bin for b in bins] != list(range(1, len(bins) + 1)):
            raise ValueError(f"profile bins must be numbered 1..{len(bins)} in order, "
                             f"got {reprlib.repr([b.bin for b in bins])}")
        if min(b.count for b in bins) < 1:
            raise ValueError(f"profile bin counts must be at least 1, "
                             f"got {reprlib.repr([b.count for b in bins])}")
        return cls(bins, sum(b.count * b.mape for b in bins) / total)


def decile_mape_profile(actual, predicted, n_bins: int = 10) -> DecileProfile:
    """Group rows into ``n_bins`` equal-count bins by actual value, MAPE each.

    Rows are ordered by actual value with ties kept in input order; bin i
    covers sorted ranks [floor(i*n/n_bins), floor((i+1)*n/n_bins)). Counts
    therefore differ by at most one and every row lands in exactly one bin,
    so the count-weighted mean of bin MAPEs equals the overall MAPE.
    """
    y, yhat = _pair(actual, predicted)
    n = y.shape[0]
    if n_bins < 1:
        raise ValueError(f"n_bins must be positive, got {n_bins}")
    if n < n_bins:
        raise ValueError(f"need at least {n_bins} rows for {n_bins} bins, got {n}")
    order = np.argsort(y, kind="stable")
    ys = y[order]
    yhs = yhat[order]
    bins = []
    low = float(ys[0])
    for i in range(n_bins):
        start = (i * n) // n_bins
        stop = ((i + 1) * n) // n_bins
        high = float(ys[stop - 1])
        bins.append(ProfileBin(
            bin=i + 1,
            count=stop - start,
            y_low=low,
            y_high=high,
            mape=mape(ys[start:stop], yhs[start:stop]),
        ))
        low = high
    return DecileProfile(tuple(bins), mape(y, yhat))


@dataclass(frozen=True)
class BathtubReport:
    """Mean bin MAPE for the low tail, the middle, and the high tail.

    ``is_bathtub`` is true when both tails are strictly worse than the
    middle, the signature of a fit dominated by mid-range rows.
    """

    front_mean: float
    mid_mean: float
    back_mean: float
    is_bathtub: bool

    def to_json(self) -> dict:
        return asdict(self)


def bathtub_report(profile: DecileProfile) -> BathtubReport:
    """Tail-vs-middle comparison; defined only for a 10-bin profile."""
    if profile.n_bins != 10:
        raise ValueError(f"bathtub shape is defined on 10 bins, got {profile.n_bins}")
    m = profile.bin_mapes
    front = float(m[0:3].mean())
    mid = float(m[3:7].mean())
    back = float(m[7:10].mean())
    return BathtubReport(front, mid, back, bool(front > mid and back > mid))


PROFILE_HEADER = ["bin", "count", "y_low", "y_high", "mape"]


def write_profile_csv(profile: DecileProfile, path) -> None:
    """One CSV row per bin, floats in shortest round-trip form."""
    write_rows(path, PROFILE_HEADER, map(astuple, profile.bins))
