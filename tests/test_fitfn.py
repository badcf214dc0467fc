"""Tests for the least-squares solver against a normal-equations oracle."""

import numpy as np
import pytest

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

    def test_shape_errors(self):
        with pytest.raises(ValueError, match="2-D"):
            ols_fit(np.ones(5), np.ones(5))
        with pytest.raises(ValueError, match="does not match"):
            ols_fit(np.ones((5, 1)) * np.arange(5)[:, None], np.ones(4))


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

