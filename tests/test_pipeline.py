"""Tests for training, scoring, diagnostics, and model persistence."""

import json

import numpy as np
import pytest

from dafr.dataset import Dataset
from dafr.errors import (
    InputError,
    ModelFormatError,
    RankDeficientError,
    SegmentSizeError,
    WidthMismatchError,
)
from dafr.metrics import decile_mape_profile, mape
from dafr.pipeline import (
    DafrModel,
    ScoreResult,
    SegmentSpec,
    dafr_score,
    dafr_score_oracle,
    dafr_train,
    diagnose,
    load_model,
    model_to_json,
    save_model,
    segment_assign,
)
from dafr.simfn import SegmentLabel
from dafr.synth import SynthConfig, generate

F, M, B = (int(s) for s in SegmentLabel)


def single_line(n=120, p=2, sigma=0.0, seed=0):
    return generate(SynthConfig(kind="single_line", n=n, p=p, noise_sigma=sigma, seed=seed))


def piecewise(n=500, seed=1, sigma=1.0):
    return generate(SynthConfig(kind="piecewise_three", n=n, noise_sigma=sigma, seed=seed))


def segment_sse(y, yhat, labels, seg):
    mask = labels == seg
    return float(np.sum((y[mask] - yhat[mask]) ** 2))


class TestSegmentSpec:
    def test_defaults_unresolved(self):
        spec = SegmentSpec()
        assert (spec.q_front, spec.q_back) == (0.3, 0.7)
        assert not spec.resolved

    def test_resolve_uses_quantiles(self):
        spec = SegmentSpec().resolve(np.arange(1.0, 11.0))
        assert spec.resolved
        assert spec.t_front == pytest.approx(3.7, rel=1e-12)
        assert spec.t_back == pytest.approx(7.3, rel=1e-12)

    def test_quantile_order_enforced(self):
        with pytest.raises(ValueError, match="smaller than q_back"):
            SegmentSpec(q_front=0.7, q_back=0.3)
        with pytest.raises(ValueError, match=r"q_front must lie"):
            SegmentSpec(q_front=0.0, q_back=0.5)
        with pytest.raises(ValueError, match="exceeds t_back"):
            SegmentSpec(t_front=5.0, t_back=1.0)
        with pytest.raises(ValueError, match="both thresholds"):
            SegmentSpec(t_front=5.0)

    def test_json_round_trip(self):
        spec = SegmentSpec(0.25, 0.8).resolve([1.0, 2.0, 3.0])
        back = SegmentSpec.from_json(spec.to_json())
        assert back == spec


class TestSegmentAssign:
    def test_ten_point_example(self):
        spec = SegmentSpec().resolve(np.arange(1.0, 11.0))
        labels = segment_assign(np.arange(1.0, 11.0), spec)
        assert labels.tolist() == [F, F, F, M, M, M, M, B, B, B]
        assert np.bincount(labels).tolist() == [3, 4, 3]

    def test_all_equal_targets_go_front(self):
        y = np.full(8, 4.0)
        spec = SegmentSpec().resolve(y)
        assert spec.t_front == spec.t_back == 4.0
        assert np.all(segment_assign(y, spec) == F)

    def test_unresolved_spec_rejected(self):
        with pytest.raises(ValueError, match="not resolved"):
            segment_assign([1.0], SegmentSpec())

    def test_threshold_separation_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            y = rng.uniform(1.0, 100.0, size=rng.integers(10, 80))
            spec = SegmentSpec().resolve(y)
            labels = segment_assign(y, spec)
            front_y = y[labels == F]
            rest_y = y[labels != F]
            assert front_y.max() <= spec.t_front
            if rest_y.size:
                assert spec.t_front < rest_y.min()


class TestTrain:
    def test_segment_sse_dominance(self):
        ds = piecewise()
        model = dafr_train(ds)
        labels = segment_assign(ds.target, model.spec)
        base = model.baseline.predict(ds.features)
        routed_by_truth = dafr_score_oracle(model, ds.features, ds.target)
        for seg in (F, M, B):
            sse_seg = segment_sse(ds.target, routed_by_truth, labels, seg)
            sse_base = segment_sse(ds.target, base, labels, seg)
            assert sse_seg <= sse_base * (1.0 + 1e-9)

    def test_noiseless_single_line_gives_equal_models(self):
        ds = single_line(sigma=0.0)
        model = dafr_train(ds)
        for part in (model.front, model.mid, model.back):
            assert part.intercept == pytest.approx(model.baseline.intercept, abs=1e-8)
            assert np.allclose(part.coefficients, model.baseline.coefficients, atol=1e-8)
        before = model.train_profile_before.bin_mapes
        after = model.train_profile_after.bin_mapes
        assert np.allclose(before, after, atol=1e-8)

    def test_stored_profiles_satisfy_partition_identity(self):
        ds = piecewise(seed=5)
        model = dafr_train(ds)
        for profile in (model.train_profile_before, model.train_profile_after):
            weighted = float(np.sum(profile.counts * profile.bin_mapes) / profile.counts.sum())
            assert weighted == pytest.approx(profile.overall_mape, rel=1e-10)

    def test_extreme_quantiles_leave_segments_too_small(self):
        ds = single_line(n=50, p=1, sigma=1.0)
        with pytest.raises(SegmentSizeError, match="back") as err:
            dafr_train(ds, spec=SegmentSpec(q_front=0.95, q_back=0.99))
        assert "sizes" in str(err.value)
        assert "q_front" in str(err.value)

    def test_min_segment_rows_is_configurable(self):
        ds = single_line(n=60, p=1, sigma=1.0)
        with pytest.raises(SegmentSizeError):
            dafr_train(ds, min_segment_rows=30)
        assert dafr_train(ds, min_segment_rows=3) is not None

    def test_degenerate_targets_warn_and_share_one_model(self):
        X = np.random.default_rng(0).uniform(size=(40, 2))
        ds = Dataset(X, np.full(40, 7.0), ("x0", "x1"), "y")
        with pytest.warns(UserWarning, match="all target values are equal"):
            model = dafr_train(ds)
        assert model.mid is model.front and model.back is model.front
        assert np.all(model.router.labels == F)
        result = dafr_score(model, X[:5])
        assert np.allclose(result.predictions, 7.0, atol=1e-8)

    def test_rank_deficiency_names_the_fit(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(1.0, 2.0, size=60)
        X = np.column_stack([x, x])
        ds = Dataset(X, 1.0 + 3.0 * x, ("a", "b"), "y")
        with pytest.raises(RankDeficientError, match="baseline fit") as err:
            dafr_train(ds)
        message = str(err.value)
        assert "'a'" in message or "'b'" in message
        assert "feature " not in message

    def test_deterministic_retrain(self):
        ds = piecewise(seed=9)
        a = json.dumps(model_to_json(dafr_train(ds)), indent=2)
        b = json.dumps(model_to_json(dafr_train(ds)), indent=2)
        assert a == b

    def test_custom_bin_count(self):
        ds = piecewise(seed=2)
        model = dafr_train(ds, n_bins=5)
        assert model.train_profile_before.n_bins == 5
        assert model.train_profile_after.n_bins == 5

    def test_router_carries_training_labels_and_k(self):
        ds = piecewise(seed=4)
        model = dafr_train(ds, k=3)
        assert model.router.k == 3
        labels = segment_assign(ds.target, model.spec)
        assert np.array_equal(model.router.labels, labels)
        assert model.router.n_references == ds.n_rows


class TestScore:
    def test_training_row_routes_to_its_segment_with_k1(self):
        ds = piecewise(seed=7, n=200)
        model = dafr_train(ds, k=1)
        labels = segment_assign(ds.target, model.spec)
        result = dafr_score(model, ds.features)
        assert np.array_equal(result.segments, labels)

    def test_noiseless_single_line_matches_baseline(self):
        ds = single_line(sigma=0.0)
        model = dafr_train(ds)
        result = dafr_score(model, ds.features)
        assert np.allclose(result.predictions, model.baseline.predict(ds.features),
                           atol=1e-8)

    def test_piecewise_beats_baseline_on_held_out_rows(self):
        from dafr.dataset import train_test_split
        ds = piecewise(n=800, seed=11)
        train, test = train_test_split(ds, 0.25, seed=11)
        model = dafr_train(train)
        base = mape(test.target, model.baseline.predict(test.features))
        routed = mape(test.target, dafr_score(model, test.features).predictions)
        assert routed < base

    def test_width_mismatch(self):
        model = dafr_train(single_line())
        with pytest.raises(WidthMismatchError, match="2 feature"):
            dafr_score(model, np.ones((3, 5)))

    def test_result_shape_and_immutability(self):
        ds = single_line(n=60)
        model = dafr_train(ds)
        result = dafr_score(model, ds.features[:7])
        assert result.predictions.shape == (7,)
        assert result.segments.shape == (7,)
        assert result.nearest_distance.shape == (7,)
        assert np.all(result.nearest_distance >= 0)
        with pytest.raises(ValueError):
            result.predictions[0] = 1.0


class TestScoreOracle:
    def test_reproduces_training_after_profile_exactly(self):
        ds = piecewise(seed=3, n=400)
        model = dafr_train(ds)
        oracle = dafr_score_oracle(model, ds.features, ds.target)
        profile = decile_mape_profile(ds.target, oracle)
        assert profile.bin_mapes.tolist() == model.train_profile_after.bin_mapes.tolist()

    def test_matches_routed_on_noiseless_single_line(self):
        ds = single_line(sigma=0.0)
        model = dafr_train(ds)
        routed = dafr_score(model, ds.features).predictions
        oracle = dafr_score_oracle(model, ds.features, ds.target)
        assert np.allclose(routed, oracle, atol=1e-8)


class TestDiagnose:
    def test_confusion_partitions_rows(self):
        ds = piecewise(seed=6)
        model = dafr_train(ds)
        report = diagnose(model, ds)
        assert report.confusion.sum() == ds.n_rows
        assert report.n_rows == ds.n_rows

    def test_identical_models_give_equal_profiles(self):
        ds = single_line(sigma=0.0)
        model = dafr_train(ds)
        report = diagnose(model, ds)
        assert np.allclose(report.baseline_profile.bin_mapes,
                           report.dafr_profile.bin_mapes, atol=1e-10)

    def test_front_and_back_bins_improve_on_piecewise_training_data(self):
        ds = piecewise(seed=1)
        model = dafr_train(ds)
        report = diagnose(model, ds)
        base = report.baseline_profile.bin_mapes
        dafr = report.dafr_profile.bin_mapes
        for i in (0, 1, 2, 7, 8, 9):
            assert dafr[i] <= base[i]

    def test_partition_identity_both_profiles(self):
        ds = piecewise(seed=8)
        model = dafr_train(ds)
        report = diagnose(model, ds)
        for profile, overall in ((report.baseline_profile, report.baseline_mape),
                                 (report.dafr_profile, report.dafr_mape)):
            weighted = float(np.sum(profile.counts * profile.bin_mapes)
                             / profile.counts.sum())
            assert weighted == pytest.approx(overall, rel=1e-10)

    def test_non_decile_bins_skip_bathtub(self):
        ds = piecewise(seed=2)
        model = dafr_train(ds)
        report = diagnose(model, ds, n_bins=5)
        assert report.baseline_bathtub is None and report.dafr_bathtub is None
        assert report.baseline_profile.n_bins == 5

    def test_given_routed_labels_replace_the_router(self):
        ds = piecewise(seed=3)
        model = dafr_train(ds)
        routed = model.router.route_many(ds.features)
        assert diagnose(model, ds, routed=routed).to_json() == diagnose(model, ds).to_json()
        oracle = segment_assign(ds.target, model.spec)
        report = diagnose(model, ds, routed=oracle)
        assert np.array_equal(report.confusion, np.diag(np.bincount(oracle, minlength=3)))
        assert report.dafr_mape == mape(ds.target, dafr_score_oracle(model, ds.features,
                                                                     ds.target))
        with pytest.raises(ValueError, match="routed labels"):
            diagnose(model, ds, routed=oracle[1:])

    def test_json_report_shape(self):
        ds = piecewise(seed=2)
        model = dafr_train(ds)
        obj = diagnose(model, ds).to_json()
        assert set(obj) == {"n_rows", "overall", "bathtub", "profiles", "confusion"}
        assert obj["confusion"]["labels"] == ["front", "mid", "back"]
        assert sum(sum(row) for row in obj["confusion"]["true_by_routed"]) == ds.n_rows
        assert obj["overall"]["baseline"]["mape"] > 0


class TestPersistence:
    def test_save_load_score_bit_exact(self, tmp_path):
        ds = piecewise(seed=12)
        model = dafr_train(ds)
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        queries = generate(SynthConfig(kind="piecewise_three", n=300, seed=77)).features
        a = dafr_score(model, queries)
        b = dafr_score(back, queries)
        assert np.array_equal(a.predictions, b.predictions)
        assert np.array_equal(a.segments, b.segments)
        assert np.array_equal(a.nearest_distance, b.nearest_distance)

    def test_save_is_stable_across_round_trip(self, tmp_path):
        ds = piecewise(seed=13)
        model = dafr_train(ds)
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_model(model, first)
        save_model(load_model(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_field_order_is_fixed(self, tmp_path):
        model = dafr_train(piecewise(seed=2))
        obj = model_to_json(model)
        assert list(obj) == ["version", "spec", "baseline", "front",
                             "mid", "back", "router", "profiles"]
        assert obj["version"] == 2
        assert list(obj["profiles"]) == ["before", "after"]

    def test_corrupted_json(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        with pytest.raises(ModelFormatError, match="not valid JSON"):
            load_model(path)

    @pytest.mark.parametrize("version", [1, 99])
    def test_wrong_version(self, tmp_path, version):
        model = dafr_train(single_line())
        obj = model_to_json(model)
        obj["version"] = version
        path = tmp_path / "model.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ModelFormatError, match="version") as err:
            load_model(path)
        if version == 1:
            assert "--config" in str(err.value)

    def test_missing_field(self, tmp_path):
        model = dafr_train(single_line())
        obj = model_to_json(model)
        del obj["router"]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ModelFormatError, match="malformed"):
            load_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="no such model file"):
            load_model(tmp_path / "absent.json")

    def test_top_level_must_be_object(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("[1, 2]")
        with pytest.raises(ModelFormatError, match="JSON object"):
            load_model(path)
