"""Segment routing by k-nearest-neighbor vote over standardized features.

The router is a lazy learner: fitting only stores standardized reference
rows. Routing is a pure function made fully deterministic by a fixed
tie-break cascade: distance ties go to the lower reference row, vote ties
to the label of the nearest neighbor among the tied labels, and any
remaining tie to the smaller label.

Routing a block of queries first filters the references with one matrix
product, ``|z|^2 + |r|^2 - 2 z.r``, keeping a few more candidates than k.
The candidates are then re-ranked by the exact distance formula of a full
scan. A per-query error bound certifies that no reference outside the
candidates can enter the top k; a query that fails the certificate is
routed by the full scan, so the result is bit-identical to scanning every
reference for every query.

A reference row can also be routed leave-one-out, as if it were not among
the references: this is how a training summary reports routing without
counting each row as its own nearest neighbour.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .dataset import Scaler

# query x reference cells per block: each temporary stays near 0.5 MB
_BLOCK_CELLS = 1 << 16
# candidates kept beyond k by the matrix-product filter
_SPARE = 8
# above this |z|^2 + max|r|^2 the approximate distances may overflow
_MAX_SCALE = 1e300


class SegmentLabel(IntEnum):
    """Target-range segments, ordered low to high."""

    FRONT = 0
    MID = 1
    BACK = 2

    @property
    def tag(self) -> str:
        return self.name.lower()

    @classmethod
    def from_tag(cls, tag: str) -> "SegmentLabel":
        try:
            return cls[tag.upper()]
        except KeyError:
            raise ValueError(f"unknown segment tag {tag!r}") from None


_TAGS = tuple(s.tag for s in SegmentLabel)
_CODES = {s.tag: int(s) for s in SegmentLabel}


def _k_nearest(refs, ref_sq, Z, k, work) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the k nearest references to each query in ``Z``, ordered by
    (squared distance, row), and each query's smallest squared distance.

    Equal to a stable argsort of ``np.sum((refs - z) ** 2, axis=1)`` for
    every query: the exact distances are recomputed with that formula, and
    a query whose top k the filter cannot certify gets that full scan.
    ``work`` is a scratch matrix with at least Z's rows and one column per
    reference; reusing it across blocks saves allocating (and page-faulting)
    a fresh one per block, which cost as much as the arithmetic.
    """
    n_ref, p = refs.shape
    m = min(n_ref, k + _SPARE)
    zz = np.einsum("ij,ij->i", Z, Z)
    with np.errstate(over="ignore", invalid="ignore"):
        approx = np.matmul(Z, refs.T, out=work[:Z.shape[0]])
        approx *= -2.0
        approx += ref_sq
        approx += zz[:, None]
    if m < n_ref:
        part = np.argpartition(approx, m, axis=1)
        cand = part[:, :m]
        # smallest approximate distance among the references left out
        outside = np.take_along_axis(approx, part[:, m:m + 1], axis=1)[:, 0]
    else:
        cand = np.broadcast_to(np.arange(n_ref), (Z.shape[0], n_ref))
        outside = np.full(Z.shape[0], np.inf)
    exact = np.sum((refs[cand] - Z[:, None, :]) ** 2, axis=2)
    order = np.lexsort((cand, exact))
    top = np.take_along_axis(cand, order[:, :k], axis=1)
    ranked = np.take_along_axis(exact, order[:, :k], axis=1)
    # |approximate - exact| <= slack (rounding in p-term dot products and
    # sums, plus an absolute term for underflow), so a left-out reference
    # that could tie or beat the k-th candidate would have an approximate
    # distance within slack of the k-th exact distance
    scale = zz + ref_sq.max()
    slack = 8 * (p + 4) * (np.finfo(float).eps * scale + np.finfo(float).tiny)
    certified = (outside > ranked[:, -1] + 2 * slack) & (scale < _MAX_SCALE)
    for i in np.flatnonzero(~certified):
        d2 = np.sum((refs - Z[i]) ** 2, axis=1)
        # stable sort: equal distances keep ascending row order
        top[i] = np.argsort(d2, kind="stable")[:k]
        ranked[i] = d2[top[i]]
    return top, ranked[:, 0]


def _majority(neighbors: np.ndarray) -> np.ndarray:
    """Vote over each row of neighbor labels, nearest first: the most
    frequent label, ties going to the tied label met first."""
    counts = (neighbors[:, :, None] == np.arange(len(SegmentLabel))).sum(axis=1)
    tied = counts == counts.max(axis=1, keepdims=True)
    first = np.argmax(np.take_along_axis(tied, neighbors, axis=1), axis=1)
    return neighbors[np.arange(neighbors.shape[0]), first]


@dataclass(frozen=True)
class KnnRouter:
    """Maps a feature vector to a SegmentLabel by majority vote of the k
    nearest standardized reference rows."""

    reference_points: np.ndarray
    labels: np.ndarray
    k: int
    scaler: Scaler

    def __post_init__(self):
        refs = np.array(self.reference_points, dtype=float)
        labels = np.asarray(self.labels).ravel().astype(int)
        if refs.ndim != 2:
            raise ValueError("reference_points must be a 2-D matrix")
        if not np.isfinite(refs).all():
            raise ValueError("reference_points contain NaN or infinite values")
        if labels.shape[0] != refs.shape[0]:
            raise ValueError(
                f"{labels.shape[0]} labels for {refs.shape[0]} reference rows"
            )
        bad = set(labels.tolist()) - {int(s) for s in SegmentLabel}
        if bad:
            raise ValueError(f"labels must be segment codes 0/1/2, got {sorted(bad)}")
        if not 1 <= self.k <= refs.shape[0]:
            raise ValueError(
                f"k must lie in [1, {refs.shape[0]}] for {refs.shape[0]} "
                f"reference rows, got {self.k}"
            )
        if self.scaler.n_features != refs.shape[1]:
            raise ValueError(
                f"scaler covers {self.scaler.n_features} columns, "
                f"references have {refs.shape[1]}"
            )
        refs.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "reference_points", refs)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "k", int(self.k))

    @property
    def n_references(self) -> int:
        return self.reference_points.shape[0]

    @property
    def n_features(self) -> int:
        return self.reference_points.shape[1]

    def _standardize(self, features) -> np.ndarray:
        X = np.asarray(features, dtype=float)
        if X.ndim != 2:
            raise ValueError("expected a 2-D matrix of queries")
        if X.shape[1] != self.n_features:
            raise ValueError(
                f"router was fit on {self.n_features} features, got {X.shape[1]}"
            )
        if not np.isfinite(X).all():
            raise ValueError("query contains NaN or infinite values")
        return self.scaler.transform(X)

    def _blocks(self, Z: np.ndarray, k: int):
        """Yield (block slice, k nearest rows, smallest squared distance)
        for consecutive blocks of standardized queries."""
        refs = self.reference_points
        ref_sq = np.einsum("ij,ij->i", refs, refs)
        step = max(1, _BLOCK_CELLS // refs.shape[0])
        work = np.empty((min(step, Z.shape[0]), refs.shape[0]))
        for lo in range(0, Z.shape[0], step):
            block = slice(lo, lo + step)
            yield (block, *_k_nearest(refs, ref_sq, Z[block], k, work))

    def _route(self, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Labels and nearest-reference distances for standardized rows.

        ``route`` and ``route_many`` both call this, so neither public
        method runs inside the other.
        """
        labels = np.empty(Z.shape[0], dtype=int)
        dists = np.empty(Z.shape[0])
        for block, top, nearest_sq in self._blocks(Z, self.k):
            labels[block] = _majority(self.labels[top])
            dists[block] = np.sqrt(nearest_sq)
        return labels, dists

    def route(self, x) -> SegmentLabel:
        """Label for a single raw feature vector."""
        z = self._standardize(np.asarray(x, dtype=float).reshape(1, -1))
        return SegmentLabel(int(self._route(z)[0][0]))

    def route_many(self, features, return_distance: bool = False):
        """Labels for each row; optionally also distance to the nearest
        reference in standardized space."""
        labels, dists = self._route(self._standardize(features))
        if return_distance:
            return labels, dists
        return labels

    def route_left_out(self, rows) -> np.ndarray:
        """Label for each given reference row, voted by its nearest other
        references: the row is routed as if it had been left out.

        Each row takes its k + 1 nearest references (at most all of them)
        and drops only its own index, so a duplicate at distance 0 stays a
        neighbour; when the row itself is not among them, the first k are
        kept. The vote then uses min(k, n - 1) neighbours and the usual tie
        rule.
        """
        rows = np.asarray(rows, dtype=int).ravel()
        n = self.n_references
        if n < 2:
            raise ValueError("leave-one-out routing needs at least 2 reference rows")
        if rows.size and not (0 <= rows.min() and rows.max() < n):
            raise ValueError(f"reference rows must lie in [0, {n - 1}]")
        k = min(self.k + 1, n)
        labels = np.empty(rows.shape[0], dtype=int)
        for block, top, _ in self._blocks(self.reference_points[rows], k):
            keep = top != rows[block, None]
            keep[keep.all(axis=1), -1] = False
            labels[block] = _majority(self.labels[top[keep].reshape(-1, k - 1)])
        return labels

    def to_json(self) -> dict:
        return {
            "reference_points": self.reference_points.tolist(),
            "labels": [_TAGS[v] for v in self.labels.tolist()],
            "k": self.k,
            "scaler": self.scaler.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "KnnRouter":
        return cls(
            reference_points=obj["reference_points"],
            labels=[_CODES[t] if t in _CODES else int(SegmentLabel.from_tag(t))
                    for t in obj["labels"]],
            k=int(obj["k"]),
            scaler=Scaler.from_json(obj["scaler"]),
        )


def knn_fit(features, labels, k: int = 5) -> KnnRouter:
    """Build a router from raw features; stores them standardized by a
    scaler fit on the features themselves."""
    X = np.asarray(features, dtype=float)
    scaler = Scaler.fit(X)
    return KnnRouter(scaler.transform(X), labels, k, scaler)
