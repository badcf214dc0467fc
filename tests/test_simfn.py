"""Tests for KNN segment routing against a brute-force oracle."""

import tracemalloc
from collections import Counter
from contextlib import contextmanager
from dataclasses import fields
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dafr import simfn
from dafr.dataset import Dataset, Scaler
from dafr.fitfn import LinearModel
from dafr.pipeline import DiagnoseReport, ScoreResult, SideReport
from dafr.simfn import KnnRouter, SegmentLabel, knn_fit
from dafr.synth import SynthConfig, generate

F, M, B = SegmentLabel.FRONT, SegmentLabel.MID, SegmentLabel.BACK


def oracle_route(refs_std, labels, k, z):
    """Full distance sort with the same tie rules, written independently."""
    m = len(refs_std)
    d2 = [float(np.sum((refs_std[i] - z) ** 2)) for i in range(m)]
    nearest = sorted(range(m), key=lambda i: (d2[i], i))[:k]
    votes = Counter(int(labels[i]) for i in nearest)
    top = max(votes.values())
    tied = {lab for lab, c in votes.items() if c == top}
    if len(tied) > 1:
        for i in nearest:
            if int(labels[i]) in tied:
                return int(labels[i])
        return min(tied)
    return tied.pop()


def oracle_nearest_distance(refs_std, z):
    return float(np.sqrt(min(float(np.sum((r - z) ** 2)) for r in refs_std)))


def identity_scaler(p):
    return Scaler(np.zeros(p), np.ones(p))


# chunk sizes that split even a few dozen references into several chunks
CHUNKS = [1, 3, 7]


@contextmanager
def chunked(chunk):
    """Shrink the block budget so that blocks of _MIN_BLOCK queries scan the
    references k + _SPARE + ``chunk`` at a time; None keeps the default."""
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(simfn, "_BLOCK_CELLS", simfn._MIN_BLOCK * chunk)
        yield


def random_router(rng, m=200, p=3, k=5):
    refs = rng.normal(size=(m, p))
    labels = rng.integers(0, 3, size=m)
    return knn_fit(refs, labels, k=k), refs, labels


class TestSegmentLabel:
    def test_order(self):
        assert F < M < B
        assert [int(s) for s in SegmentLabel] == [0, 1, 2]

    def test_tags(self):
        assert [s.tag for s in SegmentLabel] == ["front", "mid", "back"]
        assert SegmentLabel.from_tag("back") is B
        with pytest.raises(ValueError, match="unknown segment tag"):
            SegmentLabel.from_tag("left")

    def test_a_tag_that_is_no_string_is_named_briefly(self):
        with pytest.raises(ValueError, match=r"must be a string, got \['mid', 'mid', .*, \.\.\.\]$"):
            SegmentLabel.from_tag(["mid"] * 10_000)


class TestRouting:
    def test_nearest_point_wins_with_k1(self):
        router = knn_fit([[0.0], [10.0]], [F, B], k=1)
        assert router.route([1.0]) is F
        assert router.route([9.0]) is B

    def test_vote_tie_goes_to_nearest_tied_label(self):
        router = knn_fit([[0.0], [1.0], [2.0], [3.0]], [F, F, B, B], k=4)
        # distances from 1.4: 1.4, 0.4, 0.6, 1.6 -> 2-2 vote, nearest is FRONT
        assert router.route([1.4]) is F
        assert router.route([1.6]) is B

    def test_distance_tie_goes_to_lower_row(self):
        router = KnnRouter([[1.0], [-1.0]], [B, F], k=1, scaler=identity_scaler(1))
        assert router.route([0.0]) is B

    def test_equidistant_same_label(self):
        router = knn_fit([[0.0, 0.0], [2.0, 2.0], [9.0, 9.0]], [M, M, B], k=1)
        assert router.route([1.0, 1.0]) is M

    def test_self_routing_with_k1(self):
        rng = np.random.default_rng(8)
        router, refs, labels = random_router(rng, m=50, k=1)
        routed = router.route_many(refs)[0]
        assert np.array_equal(routed, labels)

    def test_all_front_references_always_front(self):
        rng = np.random.default_rng(21)
        refs = rng.normal(size=(30, 2))
        queries = rng.normal(size=(25, 2)) * 3.0
        for k in (1, 2, 5, 30):
            router = knn_fit(refs, [F] * 30, k=k)
            assert np.all(router.route_many(queries)[0] == int(F))

    def test_matches_oracle_on_random_queries(self):
        rng = np.random.default_rng(99)
        router, refs, labels = random_router(rng, m=200, p=3, k=5)
        queries = rng.normal(size=(200, 3)) * 1.5
        routed = router.route_many(queries)[0]
        Z = router.scaler.transform(queries)
        expected = [oracle_route(router.reference_points, labels, 5, z) for z in Z]
        assert np.array_equal(routed, expected)

    def test_matches_oracle_across_k(self):
        rng = np.random.default_rng(13)
        refs = rng.normal(size=(40, 2))
        labels = rng.integers(0, 3, size=40)
        queries = rng.normal(size=(30, 2))
        for k in (1, 2, 3, 7, 40):
            router = knn_fit(refs, labels, k=k)
            Z = router.scaler.transform(queries)
            expected = [oracle_route(router.reference_points, labels, k, z) for z in Z]
            assert np.array_equal(router.route_many(queries)[0], expected)

    def test_rescaling_a_column_does_not_change_routes(self):
        rng = np.random.default_rng(5)
        refs = rng.normal(size=(60, 3))
        labels = rng.integers(0, 3, size=60)
        queries = rng.normal(size=(40, 3))
        base = knn_fit(refs, labels, k=5).route_many(queries)[0]
        scaled_refs = refs.copy()
        scaled_refs[:, 1] *= 1000.0
        scaled_queries = queries.copy()
        scaled_queries[:, 1] *= 1000.0
        rescaled = knn_fit(scaled_refs, labels, k=5).route_many(scaled_queries)[0]
        assert np.array_equal(base, rescaled)

    def test_reference_permutation_invariance_on_continuous_data(self):
        rng = np.random.default_rng(31)
        refs = rng.normal(size=(80, 2))
        labels = rng.integers(0, 3, size=80)
        queries = rng.normal(size=(50, 2))
        base = knn_fit(refs, labels, k=5).route_many(queries)[0]
        perm = rng.permutation(80)
        shuffled = knn_fit(refs[perm], labels[perm], k=5).route_many(queries)[0]
        assert np.array_equal(base, shuffled)

    def test_route_agrees_with_route_many(self):
        rng = np.random.default_rng(2)
        router, _, _ = random_router(rng, m=30, p=2, k=3)
        queries = rng.normal(size=(10, 2))
        many = router.route_many(queries)[0]
        singles = [int(router.route(q)) for q in queries]
        assert np.array_equal(many, singles)

    def test_return_distance_is_nearest_reference(self):
        rng = np.random.default_rng(44)
        router, _, _ = random_router(rng, m=25, p=2, k=3)
        queries = rng.normal(size=(8, 2))
        _, dists = router.route_many(queries)
        Z = router.scaler.transform(queries)
        for z, d in zip(Z, dists):
            expected = np.sqrt(np.sum((router.reference_points - z) ** 2, axis=1)).min()
            assert d == expected

    def test_route_does_not_call_route_many(self, monkeypatch):
        # timing wrappers around both public methods count one route call
        # as one single-row routing; nesting would count it twice
        router = knn_fit([[0.0], [10.0]], [F, B], k=1)

        def refuse(*args, **kwargs):
            raise AssertionError("route went through route_many")

        monkeypatch.setattr(KnnRouter, "route_many", refuse)
        assert router.route([1.0]) is F
        assert router.route([9.0]) is B


# reference sets the matrix-product filter finds hard: exact ties on integer
# grids, clusters of duplicated rows larger than its candidate set (some a
# few ulps apart), magnitudes near the float range, far-away queries
@st.composite
def routing_problems(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(["grid", "duplicates", "scaled", "far"]))
    p = draw(st.integers(1, 3 if kind == "grid" else 20))
    if kind == "grid":
        refs = rng.integers(-1, 2, size=(n, p)).astype(float)
        queries = rng.integers(-2, 3, size=(12, p)).astype(float)
    elif kind == "duplicates":
        copies = draw(st.integers(2, 14))
        refs = np.repeat(rng.normal(size=(-(-n // copies), p)), copies, axis=0)[:n]
        refs *= 1.0 + np.finfo(float).eps * rng.integers(-4, 5, size=(n, 1))
        near = refs[rng.integers(0, n, size=6)]
        queries = np.vstack([near, near + rng.normal(size=(6, p)) * 1e-9])
    elif kind == "scaled":
        scale = draw(st.sampled_from([1e-160, 1e-150, 1e149, 1e150]))
        refs = rng.normal(size=(n, p)) * scale
        queries = rng.normal(size=(12, p)) * scale
    else:
        refs = rng.normal(size=(n, p))
        queries = rng.normal(size=(12, p)) * draw(st.sampled_from([1e3, 1e8, 1e149, 1e200]))
    k = draw(st.sampled_from([1, 2, n]))
    labels = rng.integers(0, 3, size=n)
    return refs, labels, min(k, n), queries


def assert_routes_like_the_oracle(refs, labels, k, queries, chunk=None):
    router = KnnRouter(refs, labels, k=k, scaler=identity_scaler(refs.shape[1]))
    with np.errstate(over="ignore"):
        expected = [oracle_route(refs, labels, k, z) for z in queries]
        nearest = [oracle_nearest_distance(refs, z) for z in queries]
        with chunked(chunk):
            routed, dists = router.route_many(queries)
    assert routed.tolist() == expected
    # bit patterns, not values: score --trace writes repr of each one
    assert np.array_equal(dists.view(np.int64), np.array(nearest).view(np.int64))


class TestDifferential:
    @given(problem=routing_problems())
    @settings(max_examples=150, deadline=None)
    def test_route_many_is_bit_equal_to_oracle(self, problem):
        assert_routes_like_the_oracle(*problem)

    @pytest.mark.parametrize("chunk", CHUNKS)
    @given(problem=routing_problems())
    @settings(max_examples=100, deadline=None)
    def test_route_many_in_chunks_is_bit_equal_to_oracle(self, chunk, problem):
        assert_routes_like_the_oracle(*problem, chunk=chunk)


def left_out_oracle(refs, labels, k, i):
    """Delete reference row i and route it through the smaller router."""
    others = np.arange(len(refs)) != i
    router = KnnRouter(refs[others], labels[others], k=min(k, len(refs) - 1),
                       scaler=identity_scaler(refs.shape[1]))
    return int(router.route(refs[i]))


# reference sets where a row's own index need not come first among its
# nearest: exact duplicates and tie-heavy integer grids
@st.composite
def left_out_problems(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 40))
    kind = draw(st.sampled_from(["grid", "duplicates", "scaled"]))
    p = draw(st.integers(1, 3 if kind == "grid" else 12))
    if kind == "grid":
        refs = rng.integers(-1, 2, size=(n, p)).astype(float)
    elif kind == "duplicates":
        copies = draw(st.integers(2, 10))
        refs = np.repeat(rng.normal(size=(-(-n // copies), p)), copies, axis=0)[:n]
        refs *= 1.0 + np.finfo(float).eps * rng.integers(-2, 3, size=(n, 1))
    else:
        refs = rng.normal(size=(n, p)) * draw(st.sampled_from([1e-150, 1.0, 1e150]))
    k = draw(st.sampled_from([1, 2, n - 1, n]))
    labels = rng.integers(0, 3, size=n)
    rows = rng.permutation(n)[:draw(st.integers(1, n))]
    return refs, labels, k, rows


class TestLeaveOneOut:
    def test_duplicate_at_distance_zero_stays_a_neighbour(self):
        router = KnnRouter([[0.0], [0.0], [5.0]], [F, B, F], k=1,
                           scaler=identity_scaler(1))
        assert router.route_left_out([0, 1, 2]).tolist() == [int(B), int(F), int(F)]

    def test_own_row_beyond_k_plus_one_keeps_first_k(self):
        # rows 0-2 are equal, so row 2 is third among its nearest and
        # not among its k + 1 = 2 nearest
        router = KnnRouter([[1.0], [1.0], [1.0], [3.0]], [M, M, B, B], k=1,
                           scaler=identity_scaler(1))
        assert router.route_left_out([2]).tolist() == [int(M)]

    @given(problem=left_out_problems())
    @settings(max_examples=150, deadline=None)
    def test_equals_deleting_the_row(self, problem):
        refs, labels, k, rows = problem
        router = KnnRouter(refs, labels, k=k, scaler=identity_scaler(refs.shape[1]))
        expected = [left_out_oracle(refs, labels, k, i) for i in rows]
        assert router.route_left_out(rows).tolist() == expected

    @pytest.mark.parametrize("chunk", CHUNKS)
    @given(problem=left_out_problems())
    @settings(max_examples=100, deadline=None)
    def test_in_chunks_equals_deleting_the_row(self, chunk, problem):
        refs, labels, k, rows = problem
        router = KnnRouter(refs, labels, k=k, scaler=identity_scaler(refs.shape[1]))
        expected = [left_out_oracle(refs, labels, k, i) for i in rows]
        with chunked(chunk):
            assert router.route_left_out(rows).tolist() == expected

    def test_rejects_bad_rows_and_single_reference(self):
        router = knn_fit([[0.0], [1.0], [2.0]], [F, M, B], k=1)
        with pytest.raises(ValueError, match=r"\[0, 2\]"):
            router.route_left_out([3])
        with pytest.raises(ValueError, match=r"\[0, 2\]"):
            router.route_left_out([-1])
        single = KnnRouter([[0.0]], [F], k=1, scaler=identity_scaler(1))
        with pytest.raises(ValueError, match="at least 2 reference rows"):
            single.route_left_out([0])


def record_scanned_rows(monkeypatch):
    """Patch the distance kernel to list the reference count of each call."""
    scanned = []
    k_nearest = simfn._k_nearest

    def spy(refs, ref_sq, Z, k, work):
        scanned.append(len(refs))
        return k_nearest(refs, ref_sq, Z, k, work)

    monkeypatch.setattr(simfn, "_k_nearest", spy)
    return scanned


@lru_cache(maxsize=None)
def tie_heavy_grid(p, k):
    """300 rows of a p-column integer grid, their labels, and each row's
    label routed with that row deleted (computed once per p and k)."""
    rng = np.random.default_rng(p)
    refs = rng.integers(-3, 4, size=(300, p)).astype(float)
    labels = rng.integers(0, 3, size=300)
    return refs, labels, [left_out_oracle(refs, labels, k, i) for i in range(300)]


def check_tie_heavy_grid(monkeypatch, leaf, p, chunk=None):
    monkeypatch.setattr(simfn, "_LEAF", leaf)
    monkeypatch.setattr(simfn, "_GROUP_CELLS", 0)
    rows = np.arange(300)
    scanned = record_scanned_rows(monkeypatch)
    for k in (1, 2, 299, 300):
        refs, labels, expected = tie_heavy_grid(p, k)
        router = KnnRouter(refs, labels, k=k, scaler=identity_scaler(p))
        scanned.clear()
        with chunked(chunk):
            assert router.route_left_out(rows).tolist() == expected
        if k + 1 <= leaf // 2:  # every leaf holds k + 1 rows: some are skipped
            assert min(scanned) < 300


class TestPrunedLeaveOneOut:
    """route_left_out with k-d leaves of a few rows and no cost per group
    of queries, so that most problems skip some leaves: labels must still
    equal deleting the row."""

    # the last case caps the tree walk, so every leaf counts as near
    @pytest.mark.parametrize("leaf, walk", [(4, 1 << 18), (6, 1 << 18), (6, 4)])
    @given(problem=left_out_problems())
    @settings(max_examples=100, deadline=None)
    def test_small_leaves_equal_deleting_the_row(self, leaf, walk, problem):
        refs, labels, k, rows = problem
        router = KnnRouter(refs, labels, k=k, scaler=identity_scaler(refs.shape[1]))
        expected = [left_out_oracle(refs, labels, k, i) for i in rows]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simfn, "_LEAF", leaf)
            mp.setattr(simfn, "_GROUP_CELLS", 0)
            mp.setattr(simfn, "_WALK_CELLS", walk)
            assert router.route_left_out(rows).tolist() == expected

    @pytest.mark.parametrize("leaf", [4, 6])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_tie_heavy_grid_equals_deleting_the_row(self, monkeypatch, leaf, p):
        check_tie_heavy_grid(monkeypatch, leaf, p)

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("leaf", [4, 6])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_tie_heavy_grid_in_chunks_equals_deleting_the_row(self, monkeypatch, chunk, leaf, p):
        check_tie_heavy_grid(monkeypatch, leaf, p, chunk)

    def test_some_scan_skips_references(self, monkeypatch):
        # the gate on the pruning itself: on a few thousand rows at p = 3 the
        # kernel must see fewer than all references for some queries, and
        # the labels must equal a full scan's (a single leaf scans them all)
        ds = generate(SynthConfig(kind="piecewise_three", n=3000, p=3, seed=4))
        labels = np.digitize(ds.target, np.quantile(ds.target, [0.3, 0.7]))
        router = knn_fit(ds.features, labels, k=5)
        rows = np.random.default_rng(4).choice(3000, 500, replace=False)
        scanned = record_scanned_rows(monkeypatch)
        pruned = router.route_left_out(rows)
        assert min(scanned) < 3000
        assert router.route_left_out([]).tolist() == []
        monkeypatch.setattr(simfn, "_LEAF", 3000)
        scanned.clear()
        assert pruned.tolist() == router.route_left_out(rows).tolist()
        assert scanned and min(scanned) == 3000


class TestBlockFloor:
    def test_floor_sized_blocks_match_the_oracles(self, monkeypatch):
        # one cell per block: the floor alone sets the block size, and the
        # references are scanned k + _SPARE + 1 at a time
        check_small_blocks(monkeypatch, 1)

    @pytest.mark.parametrize("chunk", [3, 7])
    def test_floor_sized_blocks_in_chunks_match_the_oracles(self, monkeypatch, chunk):
        check_small_blocks(monkeypatch, simfn._MIN_BLOCK * chunk)


class TestChunks:
    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_duplicates_straddling_a_chunk_boundary(self, chunk, k):
        # a full block scans k + _SPARE + chunk references at a time: runs
        # of equal rows cross the first two chunk ends, among grid-point ties
        width = k + simfn._SPARE + chunk
        rng = np.random.default_rng(10 * chunk + k)
        refs = rng.integers(-2, 3, size=(3 * width + 5, 2)).astype(float)
        refs[width - 3:width + 3] = [0.0, 0.0]
        refs[2 * width - 2:2 * width + 1] = [1.0, 0.0]
        labels = rng.integers(0, 3, size=len(refs))
        queries = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [0.0, 0.5], [-1.0, 1.0]])
        queries = np.vstack([queries, refs[width - 6:width + 5]])  # a full block
        assert_routes_like_the_oracle(refs, labels, k, queries, chunk)
        router = KnnRouter(refs, labels, k=k, scaler=identity_scaler(2))
        rows = np.arange(len(refs))
        expected = [left_out_oracle(refs, labels, k, i) for i in rows]
        with chunked(chunk):
            assert router.route_left_out(rows).tolist() == expected

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_a_later_chunk_that_adds_no_candidate_still_bounds_the_rest(self, chunk):
        # near |z| = 1e8 rows 1 and 0.5 away get equal approximate distances:
        # the first chunk's k + _SPARE rows 1 away fill the candidates and
        # the nearer row's chunk adds none, so only the certificate, which
        # must count that chunk's smallest approximate distance, finds it
        z, k = 1e8, 1
        m, width = k + simfn._SPARE, k + simfn._SPARE + chunk
        refs = np.full((width + 6, 1), z + 1e4)
        refs[:m] = z + 1.0
        refs[width + 2] = z + 0.5
        labels = np.ones(len(refs), dtype=int)
        labels[:m], labels[width + 2] = 0, 2
        # a full block of queries, so that each chunk is the one set up here
        assert_routes_like_the_oracle(refs, labels, k, np.full((simfn._MIN_BLOCK, 1), z), chunk)

    def test_route_many_memory_does_not_grow_with_the_references(self):
        rng = np.random.default_rng(3)
        refs = rng.normal(size=(60_000, 4))
        refs.setflags(write=False)
        router = KnnRouter(refs, rng.integers(0, 3, size=60_000), k=5, scaler=identity_scaler(4))
        queries = rng.normal(size=(64, 4))
        tracemalloc.start()
        try:
            router.route_many(queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a block's scratch and its first chunk's partition index (16 x 4,109
        # cells each, 0.5 MB) and the squared norms, one float per reference
        # (0.48 MB); a block-wide scan of every reference would take 15 MB
        assert peak <= 2 * 2**20, f"route_many peaked at {peak / 2**20:.2f} MiB"

    def test_later_calls_allocate_nothing_per_reference(self):
        peaks = []
        for n in (60_000, 240_000):
            rng = np.random.default_rng(3)
            refs = rng.normal(size=(n, 4))
            refs.setflags(write=False)
            router = KnnRouter(refs, rng.integers(0, 3, size=n), k=5, scaler=identity_scaler(4))
            queries = rng.normal(size=(64, 4))
            router.route_many(queries)  # derives the squared norms, once
            tracemalloc.start()
            try:
                router.route_many(queries)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 0.1 * 2**20, [f"{p / 2**20:.2f} MiB" for p in peaks]

    def test_squared_norms_are_derived_lazily_and_kept_out_of_the_record(self):
        X = np.random.default_rng(6).normal(size=(300, 3))
        router = knn_fit(X, np.arange(300) % 3, k=3)
        assert "ref_sq" not in vars(router)
        labels = router.route_many(X[:40])[0]
        sq = router.ref_sq
        assert router.ref_sq is sq and not sq.flags.writeable
        refs = router.reference_points
        assert np.array_equal(sq, np.einsum("ij,ij->i", refs, refs))
        twin = KnnRouter(refs, router.labels, router.k, router.scaler)
        assert "ref_sq" not in {f.name for f in fields(KnnRouter)}
        assert repr(twin) == repr(router)
        assert "ref_sq" not in router.to_json()
        assert np.array_equal(twin.route_many(X[:40])[0], labels)


def check_small_blocks(monkeypatch, cells):
    monkeypatch.setattr(simfn, "_BLOCK_CELLS", cells)
    # leaves of 5 rows and no cost per group of leave-one-out queries,
    # so those can run in several groups
    monkeypatch.setattr(simfn, "_LEAF", 8)
    monkeypatch.setattr(simfn, "_GROUP_CELLS", 0)
    sizes, groups, counts, chunked_scans = [], [], [], []
    k_nearest = simfn._k_nearest
    candidates = simfn._left_out_groups

    def spy(refs, ref_sq, Z, k, work):
        sizes.append(Z.shape[0])
        chunked_scans.append(work.shape[1] < len(refs))
        return k_nearest(refs, ref_sq, Z, k, work)

    def record(refs, *args):
        for at, near in candidates(refs, *args):
            groups.append((len(at), len(refs) if near is None else len(near)))
            yield at, near

    def step(n_ref):
        return max(simfn._MIN_BLOCK, cells // n_ref)

    monkeypatch.setattr(simfn, "_k_nearest", spy)
    monkeypatch.setattr(simfn, "_left_out_groups", record)
    rng = np.random.default_rng(9)
    for refs in (rng.integers(-1, 2, size=(80, 2)).astype(float),
                 rng.normal(size=(80, 5))):
        labels = rng.integers(0, 3, size=80)
        router = KnnRouter(refs, labels, k=3, scaler=identity_scaler(refs.shape[1]))
        queries = np.vstack([refs[:20], rng.normal(size=(20, refs.shape[1]))])
        rows = np.arange(0, 80, 2)
        routed = [oracle_route(refs, labels, 3, z) for z in queries]
        left_out = [left_out_oracle(refs, labels, 3, i) for i in rows]
        sizes.clear()
        assert router.route_many(queries)[0].tolist() == routed
        assert sizes == [16, 16, 8]
        sizes.clear()
        groups.clear()
        assert router.route_left_out(rows).tolist() == left_out
        # each group of leave-one-out queries runs in floor-sized blocks
        assert sizes == [min(step(n), g - lo) for g, n in groups for lo in range(0, g, step(n))]
        counts.append(len(groups))
    assert max(counts) > 1
    assert any(chunked_scans)


class TestLeftOutMemory:
    def test_the_bound_copies_no_leaf_it_does_not_read(self):
        # one query, so that its walk and scan stay small and the bound on
        # its k-th distance sets the peak: a padded copy of every leaf would
        # alone outweigh the 5.1 MB matrix, while the tree keeps a few
        # integers per row (0.42x the matrix here, 1.32x with that copy)
        rng = np.random.default_rng(8)
        refs = rng.normal(size=(40_000, 16))
        refs.setflags(write=False)
        router = KnnRouter(refs, rng.integers(0, 3, size=40_000), k=5, scaler=identity_scaler(16))
        router.route_left_out([7])  # derives the squared norms, once
        tracemalloc.start()
        try:
            router.route_left_out([7])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= refs.nbytes / 2, f"route_left_out peaked at {peak / 2**20:.2f} MiB"


class TestValidation:
    def test_k_bounds(self):
        refs = np.zeros((10, 1)) + np.arange(10)[:, None]
        with pytest.raises(ValueError, match=r"k must lie in \[1, 10\]"):
            knn_fit(refs, [F] * 10, k=11)
        with pytest.raises(ValueError, match="k must lie"):
            knn_fit(refs, [F] * 10, k=0)

    def test_label_length_mismatch(self):
        with pytest.raises(ValueError, match="2 labels for 3"):
            knn_fit(np.ones((3, 1)) * np.arange(3)[:, None], [F, B], k=1)

    def test_bad_label_codes(self):
        with pytest.raises(ValueError, match="segment codes"):
            KnnRouter([[0.0], [1.0]], [0, 7], k=1, scaler=identity_scaler(1))

    def test_bad_label_codes_are_listed_once_in_order(self):
        with pytest.raises(ValueError, match=r"segment codes 0/1/2, got \[-1, 3, 7\]$"):
            KnnRouter(np.arange(5.0)[:, None], [7, 1, -1, 7, 3], k=1, scaler=identity_scaler(1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_any_non_finite_reference_is_refused(self, bad):
        refs = np.arange(12.0).reshape(6, 2)
        refs[4, 1] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            KnnRouter(refs, [F] * 6, k=1, scaler=identity_scaler(2))

    def test_query_width_mismatch(self):
        router = knn_fit([[0.0, 0.0], [1.0, 1.0]], [F, B], k=1)
        with pytest.raises(ValueError, match="2 features, got 3"):
            router.route([1.0, 2.0, 3.0])

    def test_non_finite_query(self):
        router = knn_fit([[0.0], [1.0]], [F, B], k=1)
        with pytest.raises(ValueError, match="NaN or infinite"):
            router.route([np.nan])

    def test_non_finite_references(self):
        with pytest.raises(ValueError, match="NaN or infinite"):
            KnnRouter([[np.inf]], [F], k=1, scaler=identity_scaler(1))


def _read_only(points):
    points.setflags(write=False)
    return points


POINTS = np.arange(8.0).reshape(4, 2)
_SIDE = SideReport.of(np.arange(1.0, 21.0), np.arange(1.5, 21.5), 10)

# record -> (its array's contents, the record built around an array of them,
# the record's stored copy of that array)
RECORDS = {
    "Dataset": (POINTS, lambda a: Dataset(a, np.arange(4.0), ("a", "b"), "y"),
                lambda r: r.features),
    "Scaler": (np.arange(4.0), lambda a: Scaler(a, np.ones(4)), lambda r: r.means),
    "LinearModel": (np.arange(4.0), lambda a: LinearModel(0.5, a), lambda r: r.coefficients),
    "KnnRouter": (POINTS, lambda a: KnnRouter(a, [F, M, B, M], k=1, scaler=identity_scaler(2)),
                  lambda r: r.reference_points),
    "ScoreResult": (np.arange(4.0), lambda a: ScoreResult(a, np.zeros(4, dtype=int), np.zeros(4)),
                    lambda r: r.predictions),
    "DiagnoseReport": (np.arange(9).reshape(3, 3), lambda a: DiagnoseReport(9, _SIDE, _SIDE, a),
                       lambda r: r.confusion),
}
# case -> the array given, made from the record's contents
COPIED = {
    "list": lambda a: a.tolist(),
    "writable": lambda a: a.copy(),
    "fortran-order": lambda a: _read_only(np.asfortranarray(a)),
    "integer": lambda a: _read_only(a.astype(np.int64)),
    "float32": lambda a: _read_only(a.astype(np.float32)),
    "view": lambda a: _read_only(a.copy())[:],
}


def _copy_cases():
    # a 1-D array is C- and Fortran-ordered at once, and an integer record
    # keeps an integer array; the router's cases are named by the case alone
    for record, (contents, _, _) in RECORDS.items():
        for case in COPIED:
            if (case == "fortran-order" and contents.ndim == 1
                    or case == "integer" and contents.dtype.kind == "i"):
                continue
            name = case if record == "KnnRouter" else f"{record}-{case}"
            yield pytest.param(record, case, id=name)


class TestOwnership:
    """Every frozen record keeps, uncopied, a read-only array that owns its
    data and is of the record's dtype, C-ordered; it copies anything else."""

    @pytest.mark.parametrize("record", RECORDS)
    def test_a_read_only_owning_array_is_kept(self, record):
        contents, build, stored = RECORDS[record]
        given = _read_only(contents.copy())
        assert np.shares_memory(stored(build(given)), given)

    @pytest.mark.parametrize("record", RECORDS)
    def test_a_kept_array_is_shared_with_its_giver(self, record):
        # handed over, not private: a giver that makes it writable again
        # changes the record's array
        contents, build, stored = RECORDS[record]
        given = _read_only(contents.copy())
        kept = stored(build(given))
        given.setflags(write=True)
        given.flat[0] = -1
        assert kept.flat[0] == -1

    @pytest.mark.parametrize("record, case", _copy_cases())
    def test_anything_else_is_copied(self, record, case):
        contents, build, stored = RECORDS[record]
        given = COPIED[case](contents)
        made = build(given)
        assert not np.shares_memory(stored(made), np.asarray(given))
        assert np.array_equal(stored(made), contents)
        assert stored(made).dtype == contents.dtype
        assert not any(v.flags.writeable for v in vars(made).values()
                       if isinstance(v, np.ndarray))

    def test_knn_fit_keeps_its_standardized_matrix(self):
        X = generate(SynthConfig(kind="hetero_tails", n=20000, p=8, seed=1)).features
        labels = np.arange(len(X)) % 3
        tracemalloc.start()
        try:
            router = knn_fit(X, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the standardized matrix, the labels and the scaler's temporaries
        assert peak <= 1.3 * X.nbytes
        assert np.array_equal(router.reference_points, Scaler.fit(X).transform(X))

    @pytest.mark.parametrize("record", RECORDS)
    def test_callers_later_writes_do_not_reach_it(self, record):
        contents, build, stored = RECORDS[record]
        given = contents.copy()
        made = build(given)
        given[:] = -1
        assert np.array_equal(stored(made), contents)
        assert given.flags.writeable


class TestSerialization:
    def test_json_round_trip_is_exact(self):
        rng = np.random.default_rng(12)
        router, _, _ = random_router(rng, m=20, p=2, k=4)
        back = KnnRouter.from_json(router.to_json())
        assert np.array_equal(back.reference_points, router.reference_points)
        assert np.array_equal(back.labels, router.labels)
        assert back.k == router.k
        assert np.array_equal(back.scaler.means, router.scaler.means)
        rng2 = np.random.default_rng(77)
        queries = rng2.normal(size=(15, 2))
        assert np.array_equal(back.route_many(queries)[0], router.route_many(queries)[0])

    def test_labels_serialize_as_tags(self):
        router = knn_fit([[0.0], [1.0], [2.0]], [F, M, B], k=1)
        assert router.to_json()["labels"] == ["front", "mid", "back"]
