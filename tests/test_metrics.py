"""Tests for error metrics, quantiles, and the decile error profile."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dafr.errors import ZeroTargetError
from dafr.metrics import (
    BathtubReport,
    DecileProfile,
    ProfileBin,
    bathtub_report,
    decile_mape_profile,
    mad,
    mape,
    quantile,
    rmse,
    write_profile_csv,
)

# targets bounded away from zero so percentage error is always defined
targets = st.lists(st.floats(0.5, 1e3), min_size=10, max_size=60)


def paired(draw, min_size=10):
    y = draw(st.lists(st.floats(0.5, 1e3), min_size=min_size, max_size=60))
    yhat = draw(st.lists(st.floats(-1e3, 1e3, allow_nan=False),
                         min_size=len(y), max_size=len(y)))
    return np.array(y), np.array(yhat)


class TestPointMetrics:
    def test_mape_known_value(self):
        assert mape([100.0, 200.0], [110.0, 180.0]) == 10.0

    def test_mape_zero_target_is_hard_error(self):
        with pytest.raises(ZeroTargetError, match="1 actual value"):
            mape([1.0, 0.0], [1.0, 1.0])

    def test_rmse_and_mad_known_values(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(math.sqrt(12.5), rel=1e-15)
        assert mad([0.0, 0.0], [3.0, 4.0]) == 3.5

    def test_perfect_fit_is_zero(self):
        y = [1.0, 2.0, 3.0]
        assert mape(y, y) == 0.0
        assert rmse(y, y) == 0.0
        assert mad(y, y) == 0.0

    def test_length_mismatch(self):
        for fn in (mape, rmse, mad):
            with pytest.raises(ValueError, match="length mismatch"):
                fn([1.0, 2.0], [1.0])

    def test_empty_input(self):
        for fn in (mape, rmse, mad):
            with pytest.raises(ValueError, match="at least one"):
                fn([], [])

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_rmse_dominates_mad(self, data):
        y, yhat = paired(data.draw)
        assert rmse(y, yhat) >= mad(y, yhat) - 1e-12


class TestQuantile:
    def test_known_values(self):
        v = list(range(1, 11))
        assert quantile(v, 0.5) == 5.5
        assert quantile(v, 0.3) == pytest.approx(3.7, rel=1e-12)

    def test_endpoints(self):
        v = [9.0, 1.0, 5.0]
        assert quantile(v, 0.0) == 1.0
        assert quantile(v, 1.0) == 9.0

    def test_single_value(self):
        assert quantile([4.2], 0.0) == 4.2
        assert quantile([4.2], 0.7) == 4.2
        assert quantile([4.2], 1.0) == 4.2

    def test_unsorted_input(self):
        assert quantile([10, 1, 3, 7], 0.5) == 5.0

    def test_bounds_and_empty(self):
        with pytest.raises(ValueError, match="q must lie"):
            quantile([1.0], 1.5)
        with pytest.raises(ValueError, match="at least one"):
            quantile([], 0.5)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
           st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=150, deadline=None)
    def test_monotone_in_q(self, values, q1, q2):
        lo, hi = sorted((q1, q2))
        assert quantile(values, lo) <= quantile(values, hi) + 1e-12

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
           st.floats(0, 1))
    @settings(max_examples=150, deadline=None)
    def test_within_data_range(self, values, q):
        result = quantile(values, q)
        assert min(values) <= result <= max(values)


class TestProfile:
    def test_bin_counts_for_25_rows(self):
        y = np.arange(1.0, 26.0)
        profile = decile_mape_profile(y, y + 0.1)
        assert list(profile.counts) == [2, 3, 2, 3, 2, 3, 2, 3, 2, 3]

    def test_counts_differ_by_at_most_one_and_sum_to_n(self):
        for n in (10, 11, 19, 37, 100):
            y = np.linspace(1.0, 2.0, n)
            profile = decile_mape_profile(y, y * 1.01)
            counts = profile.counts
            assert counts.sum() == n
            assert counts.max() - counts.min() <= 1

    def test_edges_follow_sorted_actuals(self):
        rng = np.random.default_rng(5)
        y = rng.uniform(1.0, 9.0, size=40)
        profile = decile_mape_profile(y, y + 0.5)
        ys = np.sort(y)
        assert profile.bins[0].y_low == ys[0]
        assert profile.bins[-1].y_high == ys[-1]
        for prev, cur in zip(profile.bins, profile.bins[1:]):
            assert cur.y_low == prev.y_high
            assert cur.y_low <= cur.y_high

    def test_bins_are_one_based_and_ordered(self):
        y = np.arange(1.0, 21.0)
        profile = decile_mape_profile(y, y)
        assert [b.bin for b in profile.bins] == list(range(1, 11))

    def test_ties_keep_input_order(self):
        # identical actuals: the sort must not reorder their predictions
        y = np.full(10, 5.0)
        yhat = np.array([5.0] * 5 + [10.0] * 5)
        profile = decile_mape_profile(y, yhat, n_bins=2)
        assert profile.bins[0].mape == 0.0
        assert profile.bins[1].mape == 100.0

    def test_partition_identity(self):
        rng = np.random.default_rng(17)
        y = rng.uniform(1.0, 50.0, size=83)
        yhat = y + rng.normal(size=83)
        profile = decile_mape_profile(y, yhat)
        weighted = float(np.sum(profile.counts * profile.bin_mapes) / profile.counts.sum())
        assert math.isclose(weighted, profile.overall_mape, rel_tol=1e-10)
        assert math.isclose(profile.overall_mape, mape(y, yhat), rel_tol=1e-12)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_partition_identity_property(self, data):
        y, yhat = paired(data.draw, min_size=10)
        profile = decile_mape_profile(y, yhat)
        weighted = float(np.sum(profile.counts * profile.bin_mapes) / profile.counts.sum())
        assert math.isclose(weighted, profile.overall_mape, rel_tol=1e-10)

    def test_too_few_rows(self):
        y = np.arange(1.0, 6.0)
        with pytest.raises(ValueError, match="at least 10 rows"):
            decile_mape_profile(y, y)

    def test_bad_bin_count(self):
        y = np.arange(1.0, 6.0)
        with pytest.raises(ValueError, match="positive"):
            decile_mape_profile(y, y, n_bins=0)

    def test_json_round_trip(self):
        y = np.arange(1.0, 26.0)
        profile = decile_mape_profile(y, y + 0.3)
        back = DecileProfile.from_json(profile.to_json())
        assert back.bins == profile.bins
        assert math.isclose(back.overall_mape, profile.overall_mape, rel_tol=1e-12)

    def test_json_without_rows_is_rejected(self):
        with pytest.raises(ValueError, match="no profile rows"):
            DecileProfile.from_json([])
        empty_bin = {"bin": 1, "count": 0, "y_low": 1.0, "y_high": 1.0, "mape": 0.0}
        with pytest.raises(ValueError, match="no profile rows"):
            DecileProfile.from_json([empty_bin])

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda rows: rows[0].update(count=-1), "counts must be at least 1",
                     id="count-negative"),
        pytest.param(lambda rows: rows[4].update(count=0), "counts must be at least 1",
                     id="count-zero"),
        pytest.param(lambda rows: rows[2].update(bin=7), r"numbered 1\.\.10 in order",
                     id="bin-skipped"),
        pytest.param(lambda rows: rows.reverse(), r"numbered 1\.\.10 in order",
                     id="bins-reversed"),
    ])
    def test_json_rows_are_numbered_in_order_and_hold_rows(self, edit, message):
        y = np.arange(1.0, 26.0)
        rows = decile_mape_profile(y, y + 0.3).to_json()
        edit(rows)
        with pytest.raises(ValueError, match=message):
            DecileProfile.from_json(rows)

    def test_csv_text(self, tmp_path):
        profile = DecileProfile((ProfileBin(1, 3, 0.1, 1 / 3, 12.5),
                                 ProfileBin(2, 2, 1 / 3, 2.0, 1e-7)), 7.5)
        path = tmp_path / "profile.csv"
        write_profile_csv(profile, path)
        assert path.read_bytes() == (
            b"bin,count,y_low,y_high,mape\r\n"
            b"1,3,0.1,0.3333333333333333,12.5\r\n"
            b"2,2,0.3333333333333333,2.0,1e-07\r\n"
        )


def profile_from_mapes(mapes):
    bins = tuple(ProfileBin(i + 1, 5, float(i), float(i + 1), m)
                 for i, m in enumerate(mapes))
    overall = sum(b.count * b.mape for b in bins) / sum(b.count for b in bins)
    return DecileProfile(bins, overall)


class TestBathtub:
    def test_known_bathtub_curve(self):
        report = bathtub_report(profile_from_mapes(
            [30.0, 20.0, 15.0, 5.0, 5.0, 5.0, 5.0, 12.0, 25.0, 40.0]))
        assert report.front_mean == pytest.approx(65.0 / 3.0, rel=1e-15)
        assert report.mid_mean == 5.0
        assert report.back_mean == pytest.approx(77.0 / 3.0, rel=1e-15)
        assert report.is_bathtub

    def test_flat_curve_is_not_bathtub(self):
        report = bathtub_report(profile_from_mapes([5.0] * 10))
        assert not report.is_bathtub

    def test_one_sided_curve_is_not_bathtub(self):
        rising = bathtub_report(profile_from_mapes([1.0] * 7 + [9.0, 9.0, 9.0]))
        assert not rising.is_bathtub
        falling = bathtub_report(profile_from_mapes([9.0, 9.0, 9.0] + [1.0] * 7))
        assert not falling.is_bathtub

    def test_strict_inequality_required(self):
        report = bathtub_report(profile_from_mapes(
            [5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 6.0, 6.0, 6.0]))
        assert not report.is_bathtub

    def test_requires_ten_bins(self):
        y = np.arange(1.0, 11.0)
        profile = decile_mape_profile(y, y, n_bins=5)
        with pytest.raises(ValueError, match="10 bins"):
            bathtub_report(profile)

    def test_json_fields(self):
        report = BathtubReport(2.0, 1.0, 3.0, True)
        assert report.to_json() == {
            "front_mean": 2.0, "mid_mean": 1.0, "back_mean": 3.0, "is_bathtub": True,
        }
