"""Tests for training, scoring, diagnostics, and model persistence."""

import hashlib
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dafr import pipeline
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
from dafr.simfn import KnnRouter, SegmentLabel
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

    def test_segments_need_p_plus_two_rows(self):
        # targets 1..41: q_front puts t_front at 1 + 40 * q_front, so the
        # front segment gets p + 1 = 3 rows, then p + 2 = 4 rows
        X = np.random.default_rng(4).uniform(size=(41, 2))
        ds = Dataset(X, np.arange(1.0, 42.0), ("a", "b"), "y")
        with pytest.raises(SegmentSizeError, match="front have fewer than 4 rows"):
            dafr_train(ds, spec=SegmentSpec(q_front=2.5 / 40))
        model = dafr_train(ds, spec=SegmentSpec(q_front=3.5 / 40))
        assert np.bincount(model.router.labels, minlength=3)[F] == 4

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
        assert np.allclose(report.baseline.profile.bin_mapes,
                           report.dafr.profile.bin_mapes, atol=1e-10)

    def test_front_and_back_bins_improve_on_piecewise_training_data(self):
        ds = piecewise(seed=1)
        model = dafr_train(ds)
        report = diagnose(model, ds)
        base = report.baseline.profile.bin_mapes
        dafr = report.dafr.profile.bin_mapes
        for i in (0, 1, 2, 7, 8, 9):
            assert dafr[i] <= base[i]

    def test_partition_identity_both_profiles(self):
        ds = piecewise(seed=8)
        model = dafr_train(ds)
        report = diagnose(model, ds)
        for profile, overall in ((report.baseline.profile, report.baseline.mape),
                                 (report.dafr.profile, report.dafr.mape)):
            weighted = float(np.sum(profile.counts * profile.bin_mapes)
                             / profile.counts.sum())
            assert weighted == pytest.approx(overall, rel=1e-10)

    def test_non_decile_bins_skip_bathtub(self):
        ds = piecewise(seed=2)
        model = dafr_train(ds)
        report = diagnose(model, ds, n_bins=5)
        assert report.baseline.bathtub is None and report.dafr.bathtub is None
        assert report.baseline.profile.n_bins == 5

    def test_given_routed_labels_replace_the_router(self):
        ds = piecewise(seed=3)
        model = dafr_train(ds)
        routed = model.router.route_many(ds.features)
        assert diagnose(model, ds, routed=routed).to_json() == diagnose(model, ds).to_json()
        oracle = segment_assign(ds.target, model.spec)
        report = diagnose(model, ds, routed=oracle)
        assert np.array_equal(report.confusion, np.diag(np.bincount(oracle, minlength=3)))
        assert report.dafr.mape == mape(ds.target, dafr_score_oracle(model, ds.features,
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


def _with_references(model, n):
    """``model`` with a router holding only its first ``n`` references."""
    router = model.router
    return replace(model, router=KnnRouter(router.reference_points[:n], router.labels[:n],
                                           min(router.k, n), router.scaler))


def _outcome(path):
    """The loaded model as exact text, or the error's type and message."""
    try:
        return json.dumps(model_to_json(load_model(path)))
    except Exception as err:
        return type(err), str(err)


def _refuse(data):
    raise ValueError("streamed reader switched off")


def _edit_points(edit):
    def apply(doc):
        edit(doc["router"]["reference_points"])
        return json.dumps(doc).encode()
    return apply


def _replace_text(old, new, count=1):
    return lambda doc: json.dumps(doc).replace(old, new, count).encode()


def _text_cells(points):
    points[5][1] = repr(points[5][1])


def _shorten_from(row):
    def edit(points):
        for r in points[row:]:
            r.pop()
    return edit


# hostile model documents: name -> model document -> file bytes
HOSTILE_MODELS = {
    "indent-2": lambda doc: json.dumps(doc, indent=2).encode(),
    "keys-reordered": lambda doc: json.dumps(
        {k: ({r: v[r] for r in reversed(v)} if k == "router" else v)
         for k, v in reversed(doc.items())}).encode(),
    "duplicate-key-first": _replace_text(
        '"reference_points": ', '"reference_points": [[1.0, 2.0, 3.0]], "reference_points": '),
    "duplicate-key-last": _replace_text(
        '"reference_points": [[', '"reference_points": [[1.0, 2.0, 3.0]], "reference_points": [['),
    "escaped-duplicate-key": _replace_text('"labels": ', '"reference\\u005fpoints": null, "labels": '),
    "ragged-row": _edit_points(lambda points: points[10].pop()),
    "narrower-after-chunk": _edit_points(_shorten_from(10)),
    "string-cells": _edit_points(_text_cells),
    "nested-list": _edit_points(lambda points: points[7].__setitem__(0, [points[7][0]])),
    "nan-cell": _edit_points(lambda points: points[9].__setitem__(2, float("nan"))),
    "huge-cell": lambda doc: _edit_points(
        lambda points: points[9].__setitem__(2, 12345.5))(doc).replace(b"12345.5", b"1e400"),
    "truncated-in-matrix": lambda doc: json.dumps(doc).encode()[:4000],
    "truncated-after-matrix": lambda doc: json.dumps(doc).encode()[:-40],
    "utf8-bom": lambda doc: b"\xef\xbb\xbf" + json.dumps(doc).encode(),
    "invalid-utf8-in-matrix": lambda doc: json.dumps(doc).encode().replace(b"], [", b"], \xff[", 3),
    "invalid-utf8-outside": lambda doc: json.dumps(doc).encode().replace(b'"mid"', b'"m\xffd"', 1),
}


class TestModelIO:
    @pytest.mark.parametrize("n_refs", [1, 3, 4, 5, 9])
    def test_streamed_bytes_equal_one_dump(self, tmp_path, monkeypatch, n_refs):
        monkeypatch.setattr(pipeline, "_BLOCK_ROWS", 4)
        model = _with_references(dafr_train(piecewise(seed=4)), n_refs)
        path = tmp_path / "model.json"
        save_model(model, path)
        assert path.read_bytes() == (json.dumps(model_to_json(model)) + "\n").encode()
        back = load_model(path)
        assert np.array_equal(back.router.reference_points.view(np.uint64),
                              model.router.reference_points.view(np.uint64))

    def test_failed_save_keeps_the_old_model(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pipeline, "_BLOCK_ROWS", 4)
        path = tmp_path / "model.json"
        save_model(dafr_train(piecewise(seed=5)), path)
        before = path.read_bytes()
        dumps, calls = json.dumps, []

        def dumps_failing_on_second_block(obj, *args, **kwargs):
            calls.append(1)
            if len(calls) == 3:  # the skeleton, then one call per block
                raise RuntimeError("disk went away")
            return dumps(obj, *args, **kwargs)

        monkeypatch.setattr(json, "dumps", dumps_failing_on_second_block)
        with pytest.raises(RuntimeError, match="disk went away"):
            save_model(dafr_train(piecewise(seed=6)), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    def test_save_error_names_the_target(self, tmp_path):
        target = tmp_path / "absent" / "model.json"
        with pytest.raises(FileNotFoundError) as err:
            save_model(dafr_train(single_line()), target)
        assert err.value.filename == str(target)

    def test_saved_layout_takes_the_streamed_reader(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pipeline, "_CHUNK_BYTES", 64)
        model = dafr_train(piecewise(seed=7))
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = pipeline._streamed_document(path.read_bytes())
        assert np.array_equal(doc["router"]["reference_points"], model.router.reference_points)

    @pytest.mark.parametrize("case", sorted(HOSTILE_MODELS))
    def test_streamed_reader_matches_whole_text_parse(self, tmp_path, monkeypatch, case):
        monkeypatch.setattr(pipeline, "_CHUNK_BYTES", 64)
        path = tmp_path / "model.json"
        path.write_bytes(HOSTILE_MODELS[case](model_to_json(dafr_train(piecewise(seed=8)))))
        fast = _outcome(path)
        monkeypatch.setattr(pipeline, "_streamed_document", _refuse)
        assert fast == _outcome(path)

    def test_memory_stays_near_the_file_size(self, tmp_path):
        model = dafr_train(generate(SynthConfig(kind="hetero_tails", n=20000, p=8, seed=1)))
        path = tmp_path / "model.json"
        tracemalloc.start()
        try:
            save_model(model, path)
            save_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            load_model(path)
            load_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert save_peak <= size
        assert load_peak <= 2 * size

    def test_feature_memory_order_does_not_change_the_model(self, tmp_path):
        ds = generate(SynthConfig(kind="piecewise_three", n=3000, p=3, seed=0))
        digests = []
        for X in (ds.features, np.asfortranarray(ds.features)):
            path = tmp_path / "model.json"
            save_model(dafr_train(Dataset(X, ds.target, ds.feature_names, ds.target_name)), path)
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert digests[0] == digests[1]
