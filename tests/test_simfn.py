"""Tests for KNN segment routing against a brute-force oracle."""

from collections import Counter

import numpy as np
import pytest

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
            assert d == pytest.approx(expected, rel=1e-12)


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
