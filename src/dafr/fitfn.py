"""Linear least squares with an optional ridge penalty.

The solver QR-factorizes the intercept-augmented design with column
pivoting, so rank deficiency is detected and reported by column instead of
silently producing one of infinitely many solutions. The ridge penalty is
applied by row augmentation and never shrinks the intercept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import RankDeficientError

# relative cutoff on |R[i,i]| for calling a pivoted column dependent
RANK_RTOL = 1e-10


@dataclass(frozen=True)
class LinearModel:
    """y = intercept + features @ coefficients."""

    intercept: float
    coefficients: np.ndarray
    ridge_lambda: float = 0.0
    training_rows: int = 0

    def __post_init__(self):
        coef = np.array(self.coefficients, dtype=float).ravel()
        coef.setflags(write=False)
        object.__setattr__(self, "coefficients", coef)
        object.__setattr__(self, "intercept", float(self.intercept))

    @property
    def n_features(self) -> int:
        return self.coefficients.shape[0]

    def predict(self, features) -> np.ndarray:
        X = np.asarray(features, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"features must be a 2-D matrix, got ndim={X.ndim}")
        if X.shape[1] != self.n_features:
            raise ValueError(
                f"model was fit on {self.n_features} features, got {X.shape[1]}"
            )
        return self.intercept + X @ self.coefficients

    def to_json(self) -> dict:
        return {
            "intercept": self.intercept,
            "coefficients": self.coefficients.tolist(),
            "ridge_lambda": float(self.ridge_lambda),
            "training_rows": int(self.training_rows),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "LinearModel":
        return cls(
            intercept=float(obj["intercept"]),
            coefficients=obj["coefficients"],
            ridge_lambda=float(obj["ridge_lambda"]),
            training_rows=int(obj["training_rows"]),
        )


def _column_label(position: int, feature_names: tuple[str, ...] | None) -> str:
    if position == 0:
        return "intercept"
    if feature_names is not None:
        return repr(feature_names[position - 1])
    return f"feature {position - 1}"


def ols_fit(features, target, ridge_lambda: float = 0.0,
            feature_names: tuple[str, ...] | None = None) -> LinearModel:
    """Fit intercept and coefficients minimizing squared error.

    With ``ridge_lambda`` > 0 the objective gains ``lambda * ||coef||^2``
    (intercept excluded), implemented as sqrt(lambda) penalty rows appended
    to the design. Dependent columns with no penalty raise, naming the
    columns the pivoting pushed past the numerical rank.
    """
    X = np.asarray(features, dtype=float)
    y = np.asarray(target, dtype=float).ravel()
    if X.ndim != 2:
        raise ValueError(f"features must be a 2-D matrix, got ndim={X.ndim}")
    n, p = X.shape
    if y.shape[0] != n:
        raise ValueError(f"target length {y.shape[0]} does not match {n} rows")
    if ridge_lambda < 0:
        raise ValueError(f"ridge_lambda must be non-negative, got {ridge_lambda}")
    if n < p + 1:
        raise ValueError(
            f"need at least {p + 1} rows to fit {p} coefficients plus an "
            f"intercept, got {n}"
        )
    A = np.hstack([np.ones((n, 1)), X])
    b = y
    if ridge_lambda > 0:
        penalty = np.hstack([np.zeros((p, 1)), math.sqrt(ridge_lambda) * np.eye(p)])
        A = np.vstack([A, penalty])
        b = np.concatenate([y, np.zeros(p)])
    Q, R, piv = scipy.linalg.qr(A, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    tol = RANK_RTOL * float(np.linalg.norm(A, axis=0).max())
    rank = int(np.count_nonzero(diag > tol))
    if rank < p + 1:
        dependent = ", ".join(_column_label(int(j), feature_names) for j in piv[rank:])
        raise RankDeficientError(
            f"design matrix has rank {rank} < {p + 1}; dependent column(s): "
            f"{dependent}; drop them or set a positive ridge penalty"
        )
    z = scipy.linalg.solve_triangular(R, Q.T @ b)
    coef = np.empty(p + 1)
    coef[piv] = z
    return LinearModel(
        intercept=float(coef[0]),
        coefficients=coef[1:],
        ridge_lambda=float(ridge_lambda),
        training_rows=n,
    )

