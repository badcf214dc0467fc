"""Segment routing by k-nearest-neighbor vote over standardized features.

The router is a lazy learner: fitting only stores standardized reference
rows. Routing is a pure function made fully deterministic by a fixed
tie-break cascade: distance ties go to the lower reference row, vote ties
to the label of the nearest neighbor among the tied labels, and any
remaining tie to the smaller label.

Routing a block of queries first filters the references with a matrix
product per chunk of them, ``|z|^2 + |r|^2 - 2 z.r``, keeping a few more
candidates than k. The candidates are then re-ranked by the exact distance
formula of a full scan. A per-query error bound certifies that no reference
outside the candidates can enter the top k; a query that fails the
certificate is routed by the full scan, so the result is bit-identical to
scanning every reference for every query.

A reference row can also be routed leave-one-out, as if it were not among
the references: this is how a training summary reports routing without
counting each row as its own nearest neighbour. It scans only the leaves of
a median-split k-d tree, built per call, whose boxes lie within the row's
(k + 1)-th distance among its own leaf's rows plus the certificate's slack:
a leaf is skipped only when strictly farther, so ties are kept, and the
rows scanned go through the same filter and certificate in row order.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property

import numpy as np

from .dataset import Scaler, frozen
from .errors import json_int

# query x reference cells per block and chunk: each temporary stays near 0.5 MB
_BLOCK_CELLS = 1 << 16
# but at least this many queries (a thinner product streams every reference
# for too little arithmetic)
_MIN_BLOCK = 16
# candidates kept beyond k by the matrix-product filter
_SPARE = 8
# leave-one-out routing's k-d leaves hold _LEAF // 2 to _LEAF rows
_LEAF = 64
# a group of leave-one-out queries costs as much as scanning this many
# query x reference cells, however few it scans
_GROUP_CELLS = 1 << 13
# (query, node) pairs x columns a k-d tree walk may hold (2 MB per array)
_WALK_CELLS = 1 << 18
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
        if not isinstance(tag, str):
            raise ValueError(f"segment tag must be a string, got {reprlib.repr(tag)}")
        try:
            return cls[tag.upper()]
        except KeyError:
            raise ValueError(f"unknown segment tag {tag!r}") from None


TAGS = tuple(s.tag for s in SegmentLabel)


def _slack(scale, p: int):
    """Bound on the rounding error of a squared distance between rows of
    squared norms summing to ``scale``, however it is computed (p-term dot
    products and sums, plus an absolute term for underflow)."""
    return 8 * (p + 4) * (np.finfo(float).eps * scale + np.finfo(float).tiny)


def _k_nearest(refs, ref_sq, Z, k, work) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the k nearest references to each query in ``Z``, ordered by
    (squared distance, row), and each query's smallest squared distance.

    Equal to a stable argsort of ``np.sum((refs - z) ** 2, axis=1)`` for
    every query: the exact distances are recomputed with that formula, and
    a query whose top k the filter cannot certify gets that full scan.
    ``work`` is a scratch matrix of at least Z's rows, reused across blocks:
    the references are scanned a chunk of its width at a time, keeping the
    best k + _SPARE so far, so memory does not grow with the reference count.
    """
    n_ref, p = refs.shape
    m, width = min(n_ref, k + _SPARE), min(n_ref, work.shape[1])
    zz = np.einsum("ij,ij->i", Z, Z)
    Zm2, approx = Z * -2.0, work[:Z.shape[0], :width]
    with np.errstate(over="ignore", invalid="ignore"):
        # scaling by -2 is exact, and |z|^2 is added only to the one value
        # read below: fl(x + |z|^2) is monotone in x, so it selects alike
        np.matmul(Zm2, refs[:width].T, out=approx)
        approx += ref_sq[:width]
        if m < n_ref:
            part = np.argpartition(approx, m, axis=1)
            cand = part[:, :m]
            # smallest approximate distance among the references left out
            outside = np.take_along_axis(approx, part[:, m:m + 1], axis=1)[:, 0]
            best = np.take_along_axis(approx, cand, axis=1) if width < n_ref else None
            for lo in range(width, n_ref, width):
                fresh = approx[:, :min(width, n_ref - lo)]
                np.matmul(Zm2, refs[lo:lo + width].T, out=fresh)
                fresh += ref_sq[lo:lo + width]
                # only values below the m-th best so far can join the best m; where
                # some do, the merge drops that m-th best, no larger than the rest
                cut, low = best.max(axis=1), fresh.min(axis=1)
                at, col = np.divmod(np.flatnonzero(fresh < cut[:, None]), fresh.shape[1])
                slot = m + np.arange(at.size) - np.searchsorted(at, at)
                vals = np.full((len(Z), slot.max(initial=m) + 1), np.inf)
                rows = np.zeros(vals.shape, dtype=int)
                vals[:, :m], vals[at, slot] = best, fresh[at, col]
                rows[:, :m], rows[at, slot] = cand, col + lo
                part = np.argpartition(vals, m, axis=1)
                best, cand = (np.take_along_axis(a, part[:, :m], axis=1) for a in (vals, rows))
                dropped = np.take_along_axis(vals, part[:, m:m + 1], axis=1)[:, 0]
                outside = np.minimum(outside, np.where(low < cut, dropped, low))
            outside += zz
        else:
            cand = np.broadcast_to(np.arange(n_ref), (Z.shape[0], n_ref))
            outside = np.full(Z.shape[0], np.inf)
    exact = np.sum((refs[cand] - Z[:, None, :]) ** 2, axis=2)
    order = np.lexsort((cand, exact))
    top = np.take_along_axis(cand, order[:, :k], axis=1)
    ranked = np.take_along_axis(exact, order[:, :k], axis=1)
    # a left-out reference that could tie or beat the k-th candidate would
    # have an approximate distance within slack of the k-th exact distance
    scale = zz + ref_sq.max()
    certified = (outside > ranked[:, -1] + 2 * _slack(scale, p)) & (scale < _MAX_SCALE)
    for i in np.flatnonzero(~certified):
        rows, d2 = np.arange(width), np.sum((refs[:width] - Z[i]) ** 2, axis=1)
        # stable sorts keep ties in row order: the k kept precede each chunk
        for lo in range(width, n_ref, width):
            keep = np.argsort(d2, kind="stable")[:k]
            rows = np.concatenate([rows[keep], np.arange(lo, min(lo + width, n_ref))])
            d2 = np.concatenate([d2[keep], np.sum((refs[lo:lo + width] - Z[i]) ** 2, axis=1)])
        keep = np.argsort(d2, kind="stable")[:k]
        top[i], ranked[i] = rows[keep], d2[keep]
    return top, ranked[:, 0]


def _blocks(refs, ref_sq, Z, k):
    """Yield (block slice, k nearest rows, smallest squared distance) for
    consecutive blocks of standardized queries."""
    step = max(_MIN_BLOCK, _BLOCK_CELLS // len(refs))
    rows = max(1, min(step, Z.shape[0]))  # fewer queries scan wider chunks
    work = np.empty((rows, min(len(refs), k + _SPARE + max(1, _BLOCK_CELLS // rows))))
    for lo in range(0, Z.shape[0], step):
        block = slice(lo, lo + step)
        yield (block, *_k_nearest(refs, ref_sq, Z[block], k, work))


def _kd_tree(X):
    """Median-split k-d tree over the rows of ``X``, nodes at depth d split
    on column d mod p, down to leaves of _LEAF // 2 to _LEAF rows. Returns
    each leaf's row indices, padded with len(X), and the nodes' bounding
    boxes (lower, upper) per depth, root first: j's children are 2j, 2j + 1.
    """
    perm, starts, sizes = np.arange(len(X)), np.zeros(1, dtype=int), np.array([len(X)])
    while sizes.max() > _LEAF:
        dim = (len(sizes).bit_length() - 1) % X.shape[1]  # 2 ** depth nodes
        for first, size in zip(starts, sizes):
            node = perm[first:first + size]
            node[:] = node[np.argpartition(X[node, dim], size // 2)]
        sizes = np.column_stack([sizes // 2, sizes - sizes // 2]).ravel()
        starts = np.cumsum(sizes) - sizes
    lo, hi = np.empty((len(sizes), X.shape[1])), np.empty((len(sizes), X.shape[1]))
    for j in range(X.shape[1]):  # a column at a time: no permuted copy of X
        lo[:, j] = np.minimum.reduceat(X[perm, j], starts)
        hi[:, j] = np.maximum.reduceat(X[perm, j], starts)
    boxes = [(lo, hi)]
    while len(boxes[0][0]) > 1:
        lo, hi = boxes[0]
        boxes.insert(0, (np.minimum(lo[0::2], lo[1::2]), np.maximum(hi[0::2], hi[1::2])))
    ids = np.full((len(sizes), sizes.max()), len(X))
    leaf = np.repeat(np.arange(len(sizes)), sizes)
    ids[leaf, np.arange(len(X)) - starts[leaf]] = perm
    return ids, boxes


def _near_leaves(boxes, Z, bound):
    """(query, leaf) pairs whose leaf box lies within the query's bound on
    squared distance, walking the k-d tree ``boxes`` down from the root;
    every pair once the walk holds more than _WALK_CELLS cells, so that it
    takes little memory where it prunes little."""
    query, node = np.arange(len(Z)), np.zeros(len(Z), dtype=int)
    for depth, (lo, hi) in enumerate(boxes):
        if depth:  # the children of each pair's node
            query, node = np.repeat(query, 2), np.repeat(2 * node, 2)
            node[1::2] += 1
        if query.size * Z.shape[1] > _WALK_CELLS:
            leaves = len(boxes[-1][0])
            return np.repeat(np.arange(len(Z)), leaves), np.tile(np.arange(leaves), len(Z))
        z = Z[query]
        gap = np.minimum(np.maximum(z, lo[node]), hi[node]) - z
        near = np.einsum("ij,ij->i", gap, gap) <= bound[query]
        query, node = query[near], node[near]
    return query, node


def _left_out_groups(refs, ref_sq, rows, k):
    """Yield groups of leave-one-out queries (``rows`` are reference rows):
    their positions in ``rows`` and the reference rows, ascending, that can
    hold each one's k nearest, or None for all rows.

    A query's k-th squared distance among its own leaf's rows, plus the
    rounding slack, bounds its true k-th. Walking down from the root, a node
    is dropped only when its box lies strictly farther than that, so no
    reference that could tie the k-th nearest is lost. Scanning costs
    _GROUP_CELLS per group, and per reference row one cell per query and p
    to gather the row. The next leaf's queries join a group while that costs
    less than scanning them apart; a group scans every row, ungathered, when
    that costs less, and once a chunk of queries would, so do all the rest.
    """
    n, p = refs.shape
    # else every leaf holds k rows or more, and no distance can overflow
    if k > _LEAF // 2 or n <= _LEAF or 2 * ref_sq.max() >= _MAX_SCALE:
        yield np.arange(len(rows)), None
        return
    ids, boxes = _kd_tree(refs)
    sizes = (ids < n).sum(axis=1)
    leaf_of = np.empty(n + 1, dtype=int)
    leaf_of[ids] = np.arange(len(ids))[:, None]
    order = np.argsort(leaf_of[rows], kind="stable")

    def cost(queries, union):
        return (queries + p) * (union @ sizes)

    def scan(group, union):
        if cost(len(group), union) >= len(group) * n:
            return group, None
        return group, np.sort(ids[union], axis=None)[:union @ sizes]

    Q, own = refs[rows[order]], leaf_of[rows[order]]
    bound = _slack(ref_sq[rows[order]] + ref_sq.max(), p)
    # each chunk gathers its own leaves' rows, the padding infinitely far, in
    # query x leaf-row x column temporaries near 64 KB: no copy of every leaf
    step = max(1, _BLOCK_CELLS // 8 // (ids.shape[1] * p))
    for c in range(0, len(order), step):
        mine = ids[own[c:c + step]]
        d = refs[np.minimum(mine, n - 1)] - Q[c:c + step, None, :]
        d2 = np.einsum("ijk,ijk->ij", d, d)
        d2[mine == n] = np.inf
        bound[c:c + step] += np.partition(d2, k - 1)[:, k - 1]
    # queries per walk, so a query x leaf x column array stays near 0.5 MB
    step = max(_MIN_BLOCK, _BLOCK_CELLS // (len(ids) * p))
    group, union = order[:0], None
    for c in range(0, len(order), step):
        at, leaf = order[c:c + step], own[c:c + step]
        query, node = _near_leaves(boxes, Q[c:c + step], bound[c:c + step])
        first = np.diff(leaf, prepend=-1) != 0
        needs = np.zeros((first.sum(), len(ids)), dtype=bool)
        needs[np.cumsum(first)[query] - 1, node] = True
        cuts = np.flatnonzero(first)
        if (_GROUP_CELLS + cost(np.diff(cuts, append=len(at)), needs)).sum() >= len(at) * n:
            group, union = np.concatenate([group, order[c:]]), np.ones(len(ids), dtype=bool)
            break
        for piece, need in zip(np.split(at, cuts[1:]), needs):
            if len(group):
                merged = union | need
                apart = cost(len(group), union) + cost(len(piece), need) + _GROUP_CELLS
                if cost(len(group) + len(piece), merged) <= apart:
                    group, union = np.concatenate([group, piece]), merged
                    continue
                yield scan(group, union)
            group, union = piece, need
    if len(group):
        yield scan(group, union)


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
    nearest standardized reference rows. Arrays are frozen (see
    ``dataset.frozen``): a read-only matrix handed over is kept uncopied."""

    reference_points: np.ndarray
    labels: np.ndarray
    k: int
    scaler: Scaler

    def __post_init__(self):
        refs = frozen(self.reference_points)
        if refs.ndim != 2:
            raise ValueError("reference_points must be a 2-D matrix")
        # the extremes are finite exactly when every entry is: no n x p mask
        if refs.size and not np.isfinite([refs.min(), refs.max()]).all():
            raise ValueError("reference_points contain NaN or infinite values")
        labels = frozen(self.labels, int).ravel()
        if labels.shape[0] != refs.shape[0]:
            raise ValueError(
                f"{labels.shape[0]} labels for {refs.shape[0]} reference rows"
            )
        bad = labels[(labels < 0) | (labels >= len(SegmentLabel))]
        if bad.size:
            raise ValueError(f"labels must be segment codes 0/1/2, got {sorted(set(bad.tolist()))}")
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
        object.__setattr__(self, "reference_points", refs)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "k", int(self.k))

    @cached_property
    def ref_sq(self) -> np.ndarray:
        """Each reference row's squared norm, read-only: derived once, not saved."""
        sq = np.einsum("ij,ij->i", self.reference_points, self.reference_points)
        sq.setflags(write=False)
        return sq

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

    def _route(self, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Labels and nearest-reference distances for standardized rows.

        ``route`` and ``route_many`` both call this, so neither public
        method runs inside the other.
        """
        labels = np.empty(Z.shape[0], dtype=int)
        dists = np.empty(Z.shape[0])
        for block, top, nearest_sq in _blocks(self.reference_points, self.ref_sq, Z, self.k):
            labels[block] = _majority(self.labels[top])
            dists[block] = np.sqrt(nearest_sq)
        return labels, dists

    def route(self, x) -> SegmentLabel:
        """Label for a single raw feature vector."""
        z = self._standardize(np.asarray(x, dtype=float).reshape(1, -1))
        return SegmentLabel(int(self._route(z)[0][0]))

    def route_many(self, features) -> tuple[np.ndarray, np.ndarray]:
        """Label of each row, and its distance to the nearest reference in
        standardized space."""
        return self._route(self._standardize(features))

    def route_left_out(self, rows) -> np.ndarray:
        """Label for each given reference row, voted by its nearest other
        references: the row is routed as if it had been left out.

        Each row takes its k + 1 nearest references (at most all of them)
        and drops only its own index, so a duplicate at distance 0 stays a
        neighbour; when the row itself is not among them, the first k are
        kept. The vote then uses min(k, n - 1) neighbours and the usual tie
        rule. Each row scans only the k-d leaves that can hold its k + 1
        nearest (see the module docstring).
        """
        rows = np.asarray(rows, dtype=int).ravel()
        n = self.n_references
        if n < 2:
            raise ValueError("leave-one-out routing needs at least 2 reference rows")
        if rows.size and not (0 <= rows.min() and rows.max() < n):
            raise ValueError(f"reference rows must lie in [0, {n - 1}]")
        k = min(self.k + 1, n)
        refs, ref_sq = self.reference_points, self.ref_sq
        labels = np.empty(rows.shape[0], dtype=int)
        for at, near in _left_out_groups(refs, ref_sq, rows, k):
            cand = (refs, ref_sq) if near is None else (refs[near], ref_sq[near])
            for block, top, _ in _blocks(*cand, refs[rows[at]], k):
                top = top if near is None else near[top]
                keep = top != rows[at[block], None]
                keep[keep.all(axis=1), -1] = False
                labels[at[block]] = _majority(self.labels[top[keep].reshape(-1, k - 1)])
        return labels

    def to_json(self, with_points: bool = True) -> dict:
        return {
            "reference_points": self.reference_points.tolist() if with_points else None,
            "labels": [TAGS[v] for v in self.labels.tolist()],
            "k": self.k,
            "scaler": self.scaler.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "KnnRouter":
        """Router of a ``to_json`` document, whose labels may also come
        decoded already, as an array of segment codes."""
        labels = obj["labels"]
        if not isinstance(labels, np.ndarray):
            labels = [int(SegmentLabel.from_tag(t)) for t in labels]
        return cls(
            reference_points=obj["reference_points"],
            labels=labels,
            k=json_int(obj, "k"),
            scaler=Scaler.from_json(obj["scaler"]),
        )


def knn_fit(features, labels, k: int = 5) -> KnnRouter:
    """Build a router from raw features; stores them standardized by a
    scaler fit on the features themselves."""
    X = np.asarray(features, dtype=float)
    scaler = Scaler.fit(X)
    Z = scaler.transform(X)
    Z.setflags(write=False)  # fresh, so the router keeps it
    return KnnRouter(Z, labels, k, scaler)
