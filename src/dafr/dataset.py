"""Tabular numeric data: CSV I/O, seeded splitting, and standardization."""

from __future__ import annotations

import contextlib
import csv
import math
import operator
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CellError, InputError

# 10 deciles need at least a few rows each; anything smaller makes the
# decile diagnostics meaningless.
MIN_TRAIN_ROWS = 30
# data rows write_csv formats per write call
_WRITE_ROWS = 4096


def _frozen(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Dataset:
    """An (n, p) feature matrix with an aligned length-n target vector.

    Arrays are copied and marked read-only at construction; instances are
    safe to share across threads. Non-finite values are rejected.
    """

    features: np.ndarray
    target: np.ndarray
    feature_names: tuple[str, ...]
    target_name: str

    def __post_init__(self):
        # C order: column means round by memory layout, so model bits would too
        X = np.array(self.features, dtype=float, order="C")
        if X.ndim != 2:
            raise ValueError(f"features must be a 2-D matrix, got ndim={X.ndim}")
        y = np.array(self.target, dtype=float).ravel()
        n, p = X.shape
        if n < 1 or p < 1:
            raise ValueError(f"need at least one row and one column, got shape {X.shape}")
        if y.shape[0] != n:
            raise ValueError(f"target length {y.shape[0]} does not match {n} feature rows")
        names = tuple(str(c) for c in self.feature_names)
        if len(names) != p:
            raise ValueError(f"{len(names)} feature names for {p} feature columns")
        if not np.isfinite(X).all():
            raise ValueError("features contain NaN or infinite values")
        if not np.isfinite(y).all():
            raise ValueError("target contains NaN or infinite values")
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "target", y)
        object.__setattr__(self, "feature_names", names)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def take(self, indices) -> "Dataset":
        """Dataset restricted to the given row indices, in the given order."""
        idx = np.asarray(indices, dtype=int)
        return Dataset(self.features[idx], self.target[idx], self.feature_names, self.target_name)

    def with_target(self, target) -> "Dataset":
        """Copy of this dataset with a replaced target vector."""
        return Dataset(self.features, target, self.feature_names, self.target_name)


def _parse_cell(text: str, row: int, column: str) -> float:
    s = text.strip()
    if s == "":
        raise CellError(f"empty cell at row {row}, column {column!r}")
    try:
        value = float(s)
    except ValueError:
        raise CellError(f"non-numeric value {text!r} at row {row}, column {column!r}") from None
    if not math.isfinite(value):
        raise CellError(f"non-finite value {text!r} at row {row}, column {column!r}")
    return value


def _looks_numeric(text: str) -> bool:
    try:
        return math.isfinite(float(text.strip()))
    except ValueError:
        return False


def _read_table(path) -> tuple[list[str], np.ndarray | list[list[str]]]:
    """The stripped header and the data rows: one float matrix when numpy's
    C reader takes every cell as a finite number, in rows as wide as the
    header (it parses ASCII with ``float``'s correctly rounded
    ``PyOS_string_to_double``, so the bits match); else, so errors name the
    first bad row or cell as always, the csv module's rows of strings."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"no such file: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [c.strip() for c in next(reader)]
        except StopIteration:
            raise InputError(f"{path}: empty file, expected a header row") from None
        with contextlib.suppress(ValueError), warnings.catch_warnings():
            warnings.simplefilter("ignore")  # "input contained no data": named below
            values = np.loadtxt(fh, delimiter=",", quotechar=None, comments=None,
                                ndmin=2, dtype=float)
            if values.shape[0] and values.shape[1] == len(header) and np.isfinite(values).all():
                return header, values
        fh.seek(0)
        next(reader)
        rows = [row for row in reader if row]
    if not rows:
        raise InputError(f"{path}: no data rows")
    for i, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise InputError(f"{path}: row {i} has {len(row)} cells, header has {len(header)}")
    return header, rows


def _parse_columns(rows: list[list[str]], columns: list[int],
                   header: list[str]) -> np.ndarray:
    """The given columns of the csv rows as an (n, len(columns)) float matrix.

    numpy converts each cell with Python's ``float``, which strips the same
    whitespace ``_parse_cell`` does, so the bulk parse yields the same bits.
    Only when it fails or yields a non-finite value does the per-cell parse
    run, to raise for the first bad cell in row order, columns as given.
    """
    try:
        values = np.array(list(map(operator.itemgetter(*columns), rows)), dtype=float)
    except ValueError:
        values = None
    if values is not None and np.isfinite(values).all():
        return values.reshape(len(rows), len(columns))
    return np.array([[_parse_cell(row[j], i, header[j]) for j in columns]
                     for i, row in enumerate(rows, start=1)])


def _column_indices(header: list[str], wanted: list[str], path) -> list[int]:
    pos = {name: j for j, name in reversed(list(enumerate(header)))}
    missing = [c for c in wanted if c not in pos]
    if missing:
        raise InputError(f"{path}: column(s) {missing} not found; header is {header}")
    return [pos[c] for c in wanted]


def _feature_indices(path, header, rows, feature_columns, skip, none_found) -> list[int]:
    """The named feature columns or, when ``feature_columns`` is None, every
    column not in ``skip`` whose first data cell parses as a number."""
    if feature_columns is not None:
        if not feature_columns:
            raise InputError(f"{path}: feature_columns must not be empty")
        return _column_indices(header, list(feature_columns), path)
    numeric = isinstance(rows, np.ndarray)
    feat_idx = [j for j in range(len(header))
                if j not in skip and (numeric or _looks_numeric(rows[0][j]))]
    if not feat_idx:
        raise InputError(f"{path}: {none_found}")
    return feat_idx


def load_csv(path, target_column: str, feature_columns: list[str] | None = None) -> Dataset:
    """Load a numeric CSV (header row, comma-separated) into a Dataset.

    When ``feature_columns`` is omitted, every non-target column whose first
    data cell parses as a number becomes a feature, in file order. Rows in
    error messages are 1-based data rows (the header is not counted).
    """
    header, rows = _read_table(path)
    (target_idx,) = _column_indices(header, [target_column], path)
    feat_idx = _feature_indices(path, header, rows, feature_columns, {target_idx},
                                f"no numeric feature columns besides {target_column!r}")
    if target_idx in feat_idx:
        raise InputError(f"{path}: target column {target_column!r} listed as a feature")
    columns = [target_idx, *feat_idx]
    values = (rows.take(columns, axis=1) if isinstance(rows, np.ndarray)
              else _parse_columns(rows, columns, header))
    del rows  # so the table is freed before Dataset copies the columns
    names = tuple(header[j] for j in feat_idx)
    return Dataset(values[:, 1:], values[:, 0], names, target_column)


def load_feature_csv(path, feature_columns: list[str] | None = None,
                     exclude: tuple[str, ...] = ()) -> tuple[np.ndarray, tuple[str, ...]]:
    """Load only feature columns (no target) from a CSV, for scoring.

    Auto-selection takes every numeric column not listed in ``exclude``.
    """
    header, rows = _read_table(path)
    skip = {j for j, name in enumerate(header) if name in exclude}
    feat_idx = _feature_indices(path, header, rows, feature_columns, skip,
                                "no numeric feature columns found")
    X = (rows.take(feat_idx, axis=1) if isinstance(rows, np.ndarray)
         else _parse_columns(rows, feat_idx, header))
    return X, tuple(header[j] for j in feat_idx)


def write_csv(ds: Dataset, path) -> None:
    """Write features then target, floats in shortest round-trip form.

    The bytes are those of ``csv.writer``, which writes a float as its
    ``repr`` (never quoted, since a finite float's repr holds no comma or
    quote) and ends lines with CRLF; the data rows are formatted a block
    at a time without it, which is faster.
    """
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(list(ds.feature_names) + [ds.target_name])
        for lo in range(0, ds.n_rows, _WRITE_ROWS):
            block = np.column_stack([ds.features[lo:lo + _WRITE_ROWS],
                                     ds.target[lo:lo + _WRITE_ROWS]])
            fh.write("".join([",".join(map(repr, row)) + "\r\n" for row in block.tolist()]))


def train_test_split(ds: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded, row-disjoint split; the test side gets round(n * test_fraction) rows.

    The shuffle uses numpy's PCG64 generator; the contract is determinism
    given the seed. Row order within each side follows the input.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    n = ds.n_rows
    n_test = int(round(n * test_fraction))
    if n_test == 0:
        raise ValueError(f"test_fraction {test_fraction} of {n} rows leaves no test rows")
    n_train = n - n_test
    if n_train < MIN_TRAIN_ROWS:
        raise ValueError(
            f"split would leave {n_train} training rows; "
            f"at least {MIN_TRAIN_ROWS} are needed for decile diagnostics"
        )
    perm = np.random.default_rng(seed).permutation(n)
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])
    return ds.take(train_idx), ds.take(test_idx)


@dataclass(frozen=True)
class Scaler:
    """Column-wise standardizer using the sample (n-1) standard deviation.

    Constant columns get a unit divisor, so the training matrix maps to
    all-zero columns instead of dividing by zero.
    """

    means: np.ndarray
    stddevs: np.ndarray

    def __post_init__(self):
        means = _frozen(self.means)
        stds = _frozen(self.stddevs)
        if means.shape != stds.shape or means.ndim != 1:
            raise ValueError("scaler parameter vectors must share one length")
        if np.any(stds <= 0):
            raise ValueError("stddevs must be positive")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "stddevs", stds)

    @property
    def n_features(self) -> int:
        return self.means.shape[0]

    @classmethod
    def fit(cls, features) -> "Scaler":
        X = np.asarray(features, dtype=float)
        if X.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if X.shape[0] < 2:
            raise ValueError(f"need at least 2 rows to fit a scaler, got {X.shape[0]}")
        raw = X.std(axis=0, ddof=1)
        # raw == 0 also catches subnormal spreads that underflow the variance
        stds = np.where(raw == 0.0, 1.0, raw)
        return cls(X.mean(axis=0), stds)

    def transform(self, features) -> np.ndarray:
        X = np.asarray(features, dtype=float)
        if X.ndim != 2:
            raise ValueError("expected a 2-D matrix")
        if X.shape[1] != self.n_features:
            raise ValueError(f"scaler was fit on {self.n_features} columns, got {X.shape[1]}")
        return (X - self.means) / self.stddevs

    def to_json(self) -> dict:
        return {"means": self.means.tolist(), "stddevs": self.stddevs.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "Scaler":
        return cls(obj["means"], obj["stddevs"])


def fit_scaler(ds: Dataset) -> Scaler:
    """Scaler fit on a dataset's feature matrix."""
    return Scaler.fit(ds.features)
