"""Tests for the least-squares solver against a normal-equations oracle."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dafr
from dafr.errors import RankDeficientError
from dafr.fitfn import LinearModel, ols_fit


def normal_equations(X, y, ridge_lambda=0.0):
    """Independent solve of the same objective via (A'A + lam*D) b = A'y."""
    n, p = X.shape
    A = np.hstack([np.ones((n, 1)), X])
    D = np.eye(p + 1)
    D[0, 0] = 0.0
    b = np.linalg.solve(A.T @ A + ridge_lambda * D, A.T @ y)
    return float(b[0]), b[1:]


def random_problem(rng, n=None, p=None):
    n = n or int(rng.integers(20, 201))
    p = p or int(rng.integers(1, 11))
    X = rng.normal(size=(n, p)) * rng.uniform(0.5, 3.0, size=p)
    coef = rng.normal(size=p) * 5.0
    y = rng.uniform(-10, 10) + X @ coef + rng.normal(size=n)
    return X, y


class TestOlsFit:
    def test_exact_recovery_without_noise(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(50, 3))
        y = 2.5 + X @ np.array([1.0, -2.0, 0.5])
        model = ols_fit(X, y)
        assert model.intercept == pytest.approx(2.5, abs=1e-10)
        assert np.allclose(model.coefficients, [1.0, -2.0, 0.5], atol=1e-10)
        assert model.training_rows == 50

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            X, y = random_problem(rng)
            model = ols_fit(X, y)
            b0, coef = normal_equations(X, y)
            assert model.intercept == pytest.approx(b0, rel=1e-8, abs=1e-8)
            assert np.allclose(model.coefficients, coef, rtol=1e-8, atol=1e-8)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            X, y = random_problem(rng)
            model = ols_fit(X, y)
            r = y - model.predict(X)
            A = np.hstack([np.ones((X.shape[0], 1)), X])
            bound = 1e-8 * (1.0 + np.abs(A.T @ y).max())
            assert np.abs(A.T @ r).max() <= bound

    def test_ridge_matches_normal_equations(self):
        rng = np.random.default_rng(9)
        for lam in (1e-3, 0.1, 1.0, 10.0):
            X, y = random_problem(rng, n=60, p=4)
            model = ols_fit(X, y, ridge_lambda=lam)
            b0, coef = normal_equations(X, y, lam)
            assert model.intercept == pytest.approx(b0, rel=1e-8, abs=1e-8)
            assert np.allclose(model.coefficients, coef, rtol=1e-8, atol=1e-8)

    def test_ridge_shrinks_coefficients_not_intercept(self):
        rng = np.random.default_rng(3)
        X, y = random_problem(rng, n=80, p=5)
        norms = [
            float(np.linalg.norm(ols_fit(X, y, ridge_lambda=lam).coefficients))
            for lam in (0.0, 1.0, 100.0, 1e6)
        ]
        assert norms == sorted(norms, reverse=True)
        big = ols_fit(X, y, ridge_lambda=1e12)
        assert np.allclose(big.coefficients, 0.0, atol=1e-6)
        assert big.intercept == pytest.approx(float(y.mean()), rel=1e-6)

    def test_duplicate_column_raises_with_names(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=30)
        X = np.column_stack([x, x, rng.normal(size=30)])
        with pytest.raises(RankDeficientError, match="ridge") as err:
            ols_fit(X, x + 1.0, feature_names=("a", "b", "c"))
        assert "'a'" in str(err.value) or "'b'" in str(err.value)

    def test_constant_column_collides_with_intercept(self):
        rng = np.random.default_rng(2)
        X = np.column_stack([np.full(30, 7.0), rng.normal(size=30)])
        with pytest.raises(RankDeficientError, match="dependent column"):
            ols_fit(X, rng.normal(size=30))

    def test_ridge_rescues_rank_deficiency(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=40)
        X = np.column_stack([x, x])
        y = 1.0 + 3.0 * x
        model = ols_fit(X, y, ridge_lambda=1e-6)
        # the two identical columns split the slope evenly
        assert np.allclose(model.predict(X), y, atol=1e-4)
        assert model.coefficients[0] == pytest.approx(model.coefficients[1], rel=1e-6)

    def test_too_few_rows(self):
        with pytest.raises(ValueError, match="at least 4 rows"):
            ols_fit(np.ones((3, 3)), np.ones(3))

    def test_negative_ridge(self):
        with pytest.raises(ValueError, match="non-negative"):
            ols_fit(np.random.default_rng(0).normal(size=(10, 2)), np.ones(10), -1.0)

    @pytest.mark.parametrize("cell", ["feature", "target", "ridge"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, cell, bad):
        rng = np.random.default_rng(0)
        X, y, ridge = rng.normal(size=(10, 2)), np.ones(10), 0.0
        if cell == "feature":
            X[3, 1] = bad
        elif cell == "target":
            y[3] = bad
        else:
            ridge = bad
        with pytest.raises(ValueError, match="NaN or infinite|finite"):
            ols_fit(X, y, ridge)

    def test_shape_errors(self):
        with pytest.raises(ValueError, match="2-D"):
            ols_fit(np.ones(5), np.ones(5))
        with pytest.raises(ValueError, match="does not match"):
            ols_fit(np.ones((5, 1)) * np.arange(5)[:, None], np.ones(4))


def _dependent(X, y, names=None):
    with pytest.raises(RankDeficientError) as err:
        ols_fit(X, y, feature_names=names)
    return str(err.value)


def _duplicate_column():
    rng = np.random.default_rng(1)
    x = rng.normal(size=30)
    return np.column_stack([x, x, rng.normal(size=30)]), x + 1.0, ("a", "b", "c")


def _constant_column():
    rng = np.random.default_rng(2)
    X = np.column_stack([np.full(30, 7.0), rng.normal(size=30)])
    return X, rng.normal(size=30), ("k", "z")


def _doubled_column():
    rng = np.random.default_rng(5)
    alpha, beta = rng.normal(size=40), rng.normal(size=40)
    return np.column_stack([alpha, beta, 2 * alpha]), alpha + beta, ("alpha", "beta", "alpha2")


class TestSolver:
    @given(p=st.integers(1, 20), extra_rows=st.integers(0, 40),
           seed=st.integers(0, 2**32 - 1),
           log_scale=st.floats(0.0, 3.0), ridge=st.sampled_from([0.0, 1e-3, 1.0, 1e3]))
    @settings(max_examples=150, deadline=None)
    def test_matches_lstsq(self, p, extra_rows, seed, log_scale, ridge):
        rng = np.random.default_rng(seed)
        n = 2 * (p + 1) + extra_rows
        scales = 10.0 ** rng.uniform(-log_scale, log_scale, size=p)
        X = rng.normal(size=(n, p)) * scales
        y = rng.uniform(-10, 10) + X @ (rng.normal(size=p) / scales) + rng.normal(size=n)
        model = ols_fit(X, y, ridge_lambda=ridge)
        A = np.hstack([np.ones((n, 1)), X])
        b = y
        if ridge > 0:
            A = np.vstack([A, np.hstack([np.zeros((p, 1)), np.sqrt(ridge) * np.eye(p)])])
            b = np.concatenate([y, np.zeros(p)])
        # lstsq's SVD is accurate relative to the condition number of the
        # design as given, QR relative to that of the column-scaled design,
        # so the reference solves the column-scaled problem
        norms = np.linalg.norm(A, axis=0)
        ref = np.linalg.lstsq(A / norms, b, rcond=None)[0] / norms
        got = np.concatenate([[model.intercept], model.coefficients])
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    # the columns the earlier scipy.linalg.qr(pivoting=True) solver named
    @pytest.mark.parametrize("problem, named", [
        (_duplicate_column, "rank 3 < 4; dependent column(s): 'a';"),
        (_constant_column, "rank 2 < 3; dependent column(s): intercept;"),
        (_doubled_column, "rank 3 < 4; dependent column(s): 'alpha';"),
    ])
    def test_dependent_columns_named_as_before(self, problem, named):
        assert named in _dependent(*problem())

    @pytest.mark.parametrize("magnitude", [1e150, 1e160, 1e300])
    def test_huge_columns_do_not_overflow_the_rank_test(self, magnitude):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(50, 2)) * magnitude
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message = _dependent(X, rng.normal(size=50))
        # the unit intercept is negligible next to the feature columns
        assert "rank 2 < 3; dependent column(s): intercept;" in message

    def test_cli_import_loads_no_scipy(self):
        src = str(Path(dafr.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        code = "import sys, dafr.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestLinearModel:
    def test_predict(self):
        model = LinearModel(1.0, [2.0, -1.0])
        out = model.predict([[1.0, 1.0], [0.0, 3.0]])
        assert np.array_equal(out, [2.0, -2.0])

    def test_width_mismatch(self):
        model = LinearModel(0.0, [1.0, 2.0])
        with pytest.raises(ValueError, match="2 features"):
            model.predict(np.ones((3, 3)))

    def test_json_round_trip_is_exact(self):
        rng = np.random.default_rng(11)
        X, y = random_problem(rng, n=40, p=3)
        model = ols_fit(X, y, ridge_lambda=0.25)
        back = LinearModel.from_json(model.to_json())
        assert back.intercept == model.intercept
        assert np.array_equal(back.coefficients, model.coefficients)
        assert back.ridge_lambda == model.ridge_lambda
        assert back.training_rows == model.training_rows

    def test_coefficients_read_only(self):
        model = LinearModel(0.0, [1.0])
        with pytest.raises(ValueError):
            model.coefficients[0] = 2.0

