"""Linear least squares with an optional ridge penalty.

The solver QR-factorizes the intercept-augmented design with column
pivoting, so rank deficiency is detected and reported by column instead of
silently producing one of infinitely many solutions. The ridge penalty is
applied by row augmentation and never shrinks the intercept.

The pivoting runs on the small triangle of an unpivoted QR of the design
with the target appended (Chan 1987), not on the tall design itself: the
triangle has the design's column norms, so Businger & Golub's (1965) rule
of pivoting on the largest remaining column norm applies to it unchanged,
while the one pass over all rows stays a single LAPACK call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import frozen
from .errors import RankDeficientError, json_float, json_int

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
        object.__setattr__(self, "coefficients", frozen(self.coefficients).ravel())
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
            intercept=float(json_float(obj, "intercept")),
            coefficients=json_float(obj, "coefficients"),
            ridge_lambda=float(json_float(obj, "ridge_lambda")),
            training_rows=json_int(obj, "training_rows"),
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
    if not 0.0 <= ridge_lambda < math.inf:
        raise ValueError(f"ridge_lambda must be non-negative and finite, got {ridge_lambda}")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("features and target must not contain NaN or infinite values")
    if n < p + 1:
        raise ValueError(
            f"need at least {p + 1} rows to fit {p} coefficients plus an "
            f"intercept, got {n}"
        )
    # intercept, features, then the target as the last column
    rows = n + p if ridge_lambda > 0 else n
    design = np.zeros((rows, p + 2))
    design[:n, 0] = 1.0
    design[:n, 1:p + 1] = X
    design[:n, p + 1] = y
    if ridge_lambda > 0:
        design[n:, 1:p + 1] = math.sqrt(ridge_lambda) * np.eye(p)
    # R of [A b] is [[R_A, Q^T b], [0, residual]]: keep the p+1 rows of R_A
    top = np.linalg.qr(design, mode="r")[:p + 1]
    R, piv, qtb = _pivoted_qr(top[:, :p + 1], top[:, p + 1])
    diag = np.abs(np.diag(R))
    # the first pivot's |R_ii| is the largest column norm of the design
    tol = RANK_RTOL * diag[0]
    rank = int(np.count_nonzero(diag > tol))
    if rank < p + 1:
        dependent = ", ".join(_column_label(int(j), feature_names) for j in piv[rank:])
        raise RankDeficientError(
            f"design matrix has rank {rank} < {p + 1}; dependent column(s): "
            f"{dependent}; drop them or set a positive ridge penalty"
        )
    z = np.empty(p + 1)
    for i in range(p, -1, -1):
        z[i] = (qtb[i] - R[i, i + 1:] @ z[i + 1:]) / R[i, i]
    coef = np.empty(p + 1)
    coef[piv] = z
    return LinearModel(
        intercept=float(coef[0]),
        coefficients=coef[1:],
        ridge_lambda=float(ridge_lambda),
        training_rows=n,
    )


def _column_norms(M: np.ndarray) -> np.ndarray:
    """Euclidean norm of each column, scaled by its largest magnitude so
    that entries past 1e154 do not overflow and below 1e-154 do not vanish."""
    scale = np.abs(M).max(axis=0)
    safe = np.where(scale > 0.0, scale, 1.0)
    return scale * np.sqrt(((M / safe) ** 2).sum(axis=0))


def _pivoted_qr(R: np.ndarray, rhs: np.ndarray):
    """Householder QR of the square ``R`` with column pivoting.

    Returns the triangle, the column order and the right-hand side with
    the same reflections applied. Each step moves the remaining column of
    largest norm to the front, so ``|diag|`` is non-increasing and its
    first entry is the largest column norm.
    """
    R = R.copy()
    rhs = rhs.copy()
    k = R.shape[0]
    piv = np.arange(k)
    for j in range(k):
        norms = _column_norms(R[j:, j:])
        m = j + int(np.argmax(norms))
        R[:, [j, m]] = R[:, [m, j]]
        piv[[j, m]] = piv[[m, j]]
        alpha = norms[m - j]
        if alpha == 0.0:
            continue
        v = R[j:, j].copy()
        alpha = -math.copysign(alpha, v[0])
        v[0] -= alpha
        # |v[0]| >= |alpha| >= every other |v[i]|, so this cannot overflow
        v /= abs(v[0])
        v /= math.sqrt(v @ v)
        R[j:, j + 1:] -= 2.0 * np.outer(v, v @ R[j:, j + 1:])
        rhs[j:] -= 2.0 * v * (v @ rhs[j:])
        R[j, j] = alpha
        R[j + 1:, j] = 0.0
    return R, piv, rhs
