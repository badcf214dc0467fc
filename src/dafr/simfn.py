"""Segment routing by k-nearest-neighbor vote over standardized features.

The router is a lazy learner: fitting only stores standardized reference
rows. Routing is a pure function made fully deterministic by a fixed
tie-break cascade: distance ties go to the lower reference row, vote ties
to the label of the nearest neighbor among the tied labels, and any
remaining tie to the smaller label.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .dataset import Scaler


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
        labels = np.array([int(v) for v in np.asarray(self.labels).ravel()], dtype=int)
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

    def _vote(self, z: np.ndarray) -> tuple[SegmentLabel, float]:
        d2 = np.sum((self.reference_points - z) ** 2, axis=1)
        # stable sort: equal distances keep ascending row order
        order = np.argsort(d2, kind="stable")[: self.k]
        votes = np.bincount(self.labels[order], minlength=3)
        top = votes.max()
        tied = np.flatnonzero(votes == top)
        if tied.shape[0] == 1:
            label = int(tied[0])
        else:
            # nearest neighbor whose label is among the tied ones; ordering
            # by (neighbor rank, label) also settles a same-rank impossibility
            label = min(
                ((rank, int(self.labels[i])) for rank, i in enumerate(order)
                 if self.labels[i] in tied),
            )[1]
        return SegmentLabel(label), float(np.sqrt(d2[order[0]]))

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

    def route(self, x) -> SegmentLabel:
        """Label for a single raw feature vector."""
        z = self._standardize(np.asarray(x, dtype=float).reshape(1, -1))
        return self._vote(z[0])[0]

    def route_many(self, features, return_distance: bool = False):
        """Labels for each row; optionally also distance to the nearest
        reference in standardized space."""
        Z = self._standardize(features)
        labels = np.empty(Z.shape[0], dtype=int)
        dists = np.empty(Z.shape[0])
        for i in range(Z.shape[0]):
            label, dist = self._vote(Z[i])
            labels[i] = int(label)
            dists[i] = dist
        if return_distance:
            return labels, dists
        return labels

    def to_json(self) -> dict:
        return {
            "reference_points": self.reference_points.tolist(),
            "labels": [SegmentLabel(int(v)).tag for v in self.labels],
            "k": self.k,
            "scaler": self.scaler.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "KnnRouter":
        return cls(
            reference_points=obj["reference_points"],
            labels=[int(SegmentLabel.from_tag(t)) for t in obj["labels"]],
            k=int(obj["k"]),
            scaler=Scaler.from_json(obj["scaler"]),
        )


def knn_fit(features, labels, k: int = 5) -> KnnRouter:
    """Build a router from raw features; stores them standardized by a
    scaler fit on the features themselves."""
    X = np.asarray(features, dtype=float)
    scaler = Scaler.fit(X)
    return KnnRouter(scaler.transform(X), labels, k, scaler)
