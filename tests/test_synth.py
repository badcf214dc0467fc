"""Tests for synthetic generators and target perturbation."""

from dataclasses import replace

import numpy as np
import pytest

from dafr.fitfn import ols_fit
from dafr.metrics import bathtub_report, decile_mape_profile
from dafr.synth import (
    BREAKPOINTS,
    PIECES,
    SynthConfig,
    generate,
    inject_mid_noise,
    inject_tail_outliers,
)


def decile_ranks(y):
    order = np.argsort(y, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(y))
    return rank


class TestConfig:
    def test_defaults(self):
        cfg = SynthConfig()
        assert (cfg.kind, cfg.n, cfg.p) == ("single_line", 2000, 3)
        assert cfg.noise_sigma == 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            SynthConfig(kind="sawtooth")
        with pytest.raises(ValueError, match="n >= 1"):
            SynthConfig(n=0)
        with pytest.raises(ValueError, match="non-negative"):
            SynthConfig(noise_sigma=-1.0)


class TestGenerate:
    def test_same_config_same_bytes(self):
        cfg = SynthConfig(kind="hetero_tails", n=200, seed=5)
        a, b = generate(cfg), generate(cfg)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.target, b.target)

    def test_different_seeds_differ(self):
        a = generate(SynthConfig(n=50, seed=1))
        b = generate(SynthConfig(n=50, seed=2))
        assert not np.array_equal(a.target, b.target)

    def test_single_line_noiseless_is_exactly_linear(self):
        ds = generate(SynthConfig(kind="single_line", n=100, p=3, noise_sigma=0.0))
        model = ols_fit(ds.features, ds.target)
        residual = ds.target - model.predict(ds.features)
        assert np.abs(residual).max() <= 1e-8
        assert np.allclose(model.coefficients, [10.0, 10.0, 10.0], atol=1e-8)

    def test_piecewise_noiseless_recovers_three_slopes(self):
        cfg = SynthConfig(kind="piecewise_three", n=600, p=1, noise_sigma=0.0, seed=3)
        ds = generate(cfg)
        x = ds.features[:, 0]
        for (lo, hi), slope in zip(((0.0, 1.0), (1.0, 2.0), (2.0, 3.0)),
                                   (3.0, 10.0, 20.0)):
            mask = (x >= lo) & (x < hi)
            fit = ols_fit(ds.features[mask], ds.target[mask])
            assert fit.coefficients[0] == pytest.approx(slope, abs=1e-8)

    def test_piecewise_is_continuous_at_breakpoints(self):
        for (b0, s0), (b1, s1), at in zip(PIECES, PIECES[1:], BREAKPOINTS):
            assert b0 + s0 * at == pytest.approx(b1 + s1 * at, abs=1e-12)

    def test_targets_stay_at_least_one(self):
        for kind in ("single_line", "piecewise_three", "hetero_tails"):
            for sigma in (0.0, 1.0, 40.0):
                ds = generate(SynthConfig(kind=kind, n=300, noise_sigma=sigma, seed=2))
                assert ds.target.min() >= 1.0

    def test_hetero_tails_shows_bathtub_under_one_fit(self):
        ds = generate(SynthConfig(kind="hetero_tails", n=2000, noise_sigma=1.0, seed=1))
        model = ols_fit(ds.features, ds.target)
        profile = decile_mape_profile(ds.target, model.predict(ds.features))
        assert bathtub_report(profile).is_bathtub

    def test_feature_names_and_target_name(self):
        ds = generate(SynthConfig(n=40, p=2))
        assert ds.feature_names == ("x0", "x1")
        assert ds.target_name == "y"


class TestTailInjection:
    def test_exact_row_budget(self):
        ds = generate(SynthConfig(n=1000, seed=4))
        out = inject_tail_outliers(ds, fraction=0.05, magnitude=4.0, seed=0)
        assert int(np.sum(out.target != ds.target)) == 50
        assert np.array_equal(out.features, ds.features)
        assert out.n_rows == ds.n_rows

    def test_zero_budget_returns_input_unchanged(self):
        ds = generate(SynthConfig(n=40, seed=4))
        out = inject_tail_outliers(ds, fraction=0.01, seed=0)
        assert np.array_equal(out.target, ds.target)

    def test_changed_rows_live_in_outer_deciles(self):
        ds = generate(SynthConfig(n=500, seed=6))
        out = inject_tail_outliers(ds, fraction=0.1, seed=1)
        ranks = decile_ranks(ds.target)
        changed = np.flatnonzero(out.target != ds.target)
        n = ds.n_rows
        assert np.all((ranks[changed] < n // 10) | (ranks[changed] >= (9 * n) // 10))

    def test_pushes_away_from_median(self):
        ds = generate(SynthConfig(n=500, seed=6))
        out = inject_tail_outliers(ds, fraction=0.1, magnitude=4.0, seed=1)
        med = np.median(ds.target)
        delta = 4.0 * ds.target.std(ddof=1)
        changed = np.flatnonzero(out.target != ds.target)
        for i in changed:
            if ds.target[i] >= med:
                assert out.target[i] == ds.target[i] + delta
            else:
                assert out.target[i] == ds.target[i] - delta

    def test_budget_clamps_to_pool(self):
        # 18 rows: outer deciles hold 1 + 2 = 3 rows, budget asks for 4
        ds = generate(SynthConfig(n=18, seed=7))
        out = inject_tail_outliers(ds, fraction=0.2, seed=0)
        assert int(np.sum(out.target != ds.target)) == 3

    def test_deterministic_given_seed(self):
        ds = generate(SynthConfig(n=300, seed=8))
        a = inject_tail_outliers(ds, fraction=0.1, seed=5)
        b = inject_tail_outliers(ds, fraction=0.1, seed=5)
        assert np.array_equal(a.target, b.target)
        c = inject_tail_outliers(ds, fraction=0.1, seed=6)
        assert not np.array_equal(a.target, c.target)

    def test_validation(self):
        ds = generate(SynthConfig(n=40, seed=1))
        with pytest.raises(ValueError, match=r"\(0, 0.2\]"):
            inject_tail_outliers(ds, fraction=0.3)
        with pytest.raises(ValueError, match="magnitude"):
            inject_tail_outliers(ds, magnitude=0.0)
        flat = replace(ds, target=np.full(40, 2.0))
        with pytest.raises(ValueError, match="degenerate"):
            inject_tail_outliers(flat)


class TestMidInjection:
    def test_changed_rows_live_in_middle_deciles(self):
        ds = generate(SynthConfig(n=500, seed=9))
        out = inject_mid_noise(ds, fraction=0.2, sigma=1.0, seed=2)
        ranks = decile_ranks(ds.target)
        changed = np.flatnonzero(out.target != ds.target)
        n = ds.n_rows
        assert changed.size == 100
        assert np.all((ranks[changed] >= (3 * n) // 10) & (ranks[changed] < (7 * n) // 10))

    def test_tiny_sigma_limit(self):
        ds = generate(SynthConfig(n=400, seed=10))
        out = inject_mid_noise(ds, fraction=0.1, sigma=1e-14, seed=3)
        assert np.allclose(out.target, ds.target, rtol=0, atol=1e-12)

    def test_equal_seeds_select_equal_rows(self):
        ds = generate(SynthConfig(n=300, seed=11))
        a = inject_mid_noise(ds, fraction=0.1, sigma=1.0, seed=4)
        b = inject_mid_noise(ds, fraction=0.1, sigma=2.0, seed=4)
        assert np.array_equal(np.flatnonzero(a.target != ds.target),
                              np.flatnonzero(b.target != ds.target))

    def test_features_untouched(self):
        ds = generate(SynthConfig(n=200, seed=12))
        out = inject_mid_noise(ds, fraction=0.5, sigma=2.0, seed=0)
        assert np.array_equal(out.features, ds.features)
        assert out.feature_names == ds.feature_names

    def test_validation(self):
        ds = generate(SynthConfig(n=40, seed=1))
        with pytest.raises(ValueError, match=r"\(0, 0.5\]"):
            inject_mid_noise(ds, fraction=0.6)
        with pytest.raises(ValueError, match="sigma"):
            inject_mid_noise(ds, sigma=0.0)
