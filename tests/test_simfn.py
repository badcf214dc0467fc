"""Tests for KNN segment routing against a brute-force oracle."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dafr import simfn
from dafr.dataset import Scaler
from dafr.simfn import KnnRouter, SegmentLabel, knn_fit

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
        routed = router.route_many(refs)
        assert np.array_equal(routed, labels)

    def test_all_front_references_always_front(self):
        rng = np.random.default_rng(21)
        refs = rng.normal(size=(30, 2))
        queries = rng.normal(size=(25, 2)) * 3.0
        for k in (1, 2, 5, 30):
            router = knn_fit(refs, [F] * 30, k=k)
            assert np.all(router.route_many(queries) == int(F))

    def test_matches_oracle_on_random_queries(self):
        rng = np.random.default_rng(99)
        router, refs, labels = random_router(rng, m=200, p=3, k=5)
        queries = rng.normal(size=(200, 3)) * 1.5
        routed = router.route_many(queries)
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
            assert np.array_equal(router.route_many(queries), expected)

    def test_rescaling_a_column_does_not_change_routes(self):
        rng = np.random.default_rng(5)
        refs = rng.normal(size=(60, 3))
        labels = rng.integers(0, 3, size=60)
        queries = rng.normal(size=(40, 3))
        base = knn_fit(refs, labels, k=5).route_many(queries)
        scaled_refs = refs.copy()
        scaled_refs[:, 1] *= 1000.0
        scaled_queries = queries.copy()
        scaled_queries[:, 1] *= 1000.0
        rescaled = knn_fit(scaled_refs, labels, k=5).route_many(scaled_queries)
        assert np.array_equal(base, rescaled)

    def test_reference_permutation_invariance_on_continuous_data(self):
        rng = np.random.default_rng(31)
        refs = rng.normal(size=(80, 2))
        labels = rng.integers(0, 3, size=80)
        queries = rng.normal(size=(50, 2))
        base = knn_fit(refs, labels, k=5).route_many(queries)
        perm = rng.permutation(80)
        shuffled = knn_fit(refs[perm], labels[perm], k=5).route_many(queries)
        assert np.array_equal(base, shuffled)

    def test_route_agrees_with_route_many(self):
        rng = np.random.default_rng(2)
        router, _, _ = random_router(rng, m=30, p=2, k=3)
        queries = rng.normal(size=(10, 2))
        many = router.route_many(queries)
        singles = [int(router.route(q)) for q in queries]
        assert np.array_equal(many, singles)

    def test_return_distance_is_nearest_reference(self):
        rng = np.random.default_rng(44)
        router, _, _ = random_router(rng, m=25, p=2, k=3)
        queries = rng.normal(size=(8, 2))
        _, dists = router.route_many(queries, return_distance=True)
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


class TestDifferential:
    @given(problem=routing_problems())
    @settings(max_examples=150, deadline=None)
    def test_route_many_is_bit_equal_to_oracle(self, problem):
        refs, labels, k, queries = problem
        router = KnnRouter(refs, labels, k=k, scaler=identity_scaler(refs.shape[1]))
        with np.errstate(over="ignore"):
            routed, dists = router.route_many(queries, return_distance=True)
            expected = [oracle_route(refs, labels, k, z) for z in queries]
            nearest = [oracle_nearest_distance(refs, z) for z in queries]
        assert routed.tolist() == expected
        # bit patterns, not values: score --trace writes repr of each one
        assert np.array_equal(dists.view(np.int64), np.array(nearest).view(np.int64))


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

    def test_rejects_bad_rows_and_single_reference(self):
        router = knn_fit([[0.0], [1.0], [2.0]], [F, M, B], k=1)
        with pytest.raises(ValueError, match=r"\[0, 2\]"):
            router.route_left_out([3])
        with pytest.raises(ValueError, match=r"\[0, 2\]"):
            router.route_left_out([-1])
        single = KnnRouter([[0.0]], [F], k=1, scaler=identity_scaler(1))
        with pytest.raises(ValueError, match="at least 2 reference rows"):
            single.route_left_out([0])


class TestBlockFloor:
    def test_floor_sized_blocks_match_the_oracles(self, monkeypatch):
        # one cell per block: the floor alone sets the block size
        monkeypatch.setattr(simfn, "_BLOCK_CELLS", 1)
        sizes = []
        k_nearest = simfn._k_nearest

        def spy(refs, ref_sq, Z, k, work):
            sizes.append(Z.shape[0])
            return k_nearest(refs, ref_sq, Z, k, work)

        monkeypatch.setattr(simfn, "_k_nearest", spy)
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
            assert router.route_many(queries).tolist() == routed
            assert router.route_left_out(rows).tolist() == left_out
            assert sizes == [16, 16, 8] * 2


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
        assert np.array_equal(back.route_many(queries), router.route_many(queries))

    def test_labels_serialize_as_tags(self):
        router = knn_fit([[0.0], [1.0], [2.0]], [F, M, B], k=1)
        assert router.to_json()["labels"] == ["front", "mid", "back"]
