"""Tests for CSV loading, splitting, and standardization."""

import csv
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dafr.dataset import (
    Dataset,
    Scaler,
    fit_scaler,
    load_csv,
    load_feature_csv,
    train_test_split,
    write_csv,
)
from dafr.errors import CellError, InputError


def make_ds(n=10, p=2, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    y = rng.normal(size=n) + 5.0
    return Dataset(X, y, tuple(f"x{j}" for j in range(p)), "y")


class TestDataset:
    def test_arrays_are_read_only_copies(self):
        X = np.ones((3, 2))
        y = np.ones(3)
        ds = Dataset(X, y, ("a", "b"), "y")
        X[0, 0] = 99.0
        assert ds.features[0, 0] == 1.0
        with pytest.raises(ValueError):
            ds.features[0, 0] = 5.0

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            Dataset(np.ones(3), np.ones(3), ("a",), "y")
        with pytest.raises(ValueError, match="length"):
            Dataset(np.ones((3, 1)), np.ones(4), ("a",), "y")
        with pytest.raises(ValueError, match="names"):
            Dataset(np.ones((3, 2)), np.ones(3), ("a",), "y")

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="NaN or infinite"):
            Dataset([[1.0], [np.nan]], [1.0, 2.0], ("a",), "y")
        with pytest.raises(ValueError, match="NaN or infinite"):
            Dataset([[1.0], [2.0]], [1.0, np.inf], ("a",), "y")

    def test_take_preserves_order(self):
        ds = make_ds(6)
        sub = ds.take([4, 1, 1])
        assert sub.n_rows == 3
        assert np.array_equal(sub.features[0], ds.features[4])
        assert np.array_equal(sub.features[1], ds.features[1])
        assert sub.target[2] == ds.target[1]

    def test_with_target(self):
        ds = make_ds(5)
        replaced = ds.with_target(np.arange(5.0) + 1)
        assert np.array_equal(replaced.target, [1, 2, 3, 4, 5])
        assert np.array_equal(replaced.features, ds.features)


class TestCsv:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        ds = Dataset(rng.normal(size=(20, 3)) * 1e-7, rng.normal(size=20) * 1e7,
                     ("a", "b", "c"), "y")
        path = tmp_path / "data.csv"
        write_csv(ds, path)
        back = load_csv(path, "y")
        assert back.feature_names == ds.feature_names
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.target, ds.target)

    def test_feature_selection_by_name(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,y,c\n1,2,3,4\n5,6,7,8\n")
        ds = load_csv(path, "y", feature_columns=["c", "a"])
        assert ds.feature_names == ("c", "a")
        assert np.array_equal(ds.features, [[4, 1], [8, 5]])
        assert np.array_equal(ds.target, [3, 7])

    def test_auto_features_skip_text_columns(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("name,a,y\nalpha,1,2\nbeta,3,4\n")
        ds = load_csv(path, "y")
        assert ds.feature_names == ("a",)

    def test_missing_target_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(InputError, match="'z'"):
            load_csv(path, "z")

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="no such file"):
            load_csv(tmp_path / "nope.csv", "y")

    def test_empty_and_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(InputError, match="empty file"):
            load_csv(path, "y")
        path.write_text("a,y\n")
        with pytest.raises(InputError, match="no data rows"):
            load_csv(path, "y")

    def test_bad_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,y\n1,2\nfoo,4\n")
        with pytest.raises(CellError, match=r"row 2, column 'a'"):
            load_csv(path, "y")

    def test_non_finite_cell_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,y\n1,2\n3,inf\n")
        with pytest.raises(CellError, match=r"row 2, column 'y'"):
            load_csv(path, "y")

    def test_empty_cell_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,y\n1,2\n,4\n")
        with pytest.raises(CellError, match=r"empty cell at row 2"):
            load_csv(path, "y")

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,y\n1,2\n3\n")
        with pytest.raises(InputError, match="row 2 has 1 cells"):
            load_csv(path, "y")

    def test_target_cannot_be_feature(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,y\n1,2\n")
        with pytest.raises(InputError, match="listed as a feature"):
            load_csv(path, "y", feature_columns=["a", "y"])

    def test_load_feature_csv(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,y\n1,2,3\n4,5,6\n")
        X, names = load_feature_csv(path, feature_columns=["a", "b"])
        assert names == ("a", "b")
        assert np.array_equal(X, [[1, 2], [4, 5]])
        X2, names2 = load_feature_csv(path, exclude=("y",))
        assert names2 == ("a", "b")
        assert np.array_equal(X2, X)

    @given(X=arrays(np.float64, (4, 2),
                    elements=st.floats(-1e12, 1e12, allow_nan=False, width=64)))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, tmp_path_factory, X):
        ds = Dataset(X, X[:, 0] + 1.0, ("a", "b"), "y")
        path = tmp_path_factory.mktemp("csv") / "rt.csv"
        write_csv(ds, path)
        back = load_csv(path, "y")
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.target, ds.target)


def reference_write(ds, path):
    """The csv.writer output write_csv must reproduce byte for byte."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(ds.feature_names) + [ds.target_name])
        writer.writerows(f + [t] for f, t in zip(ds.features.tolist(), ds.target.tolist()))


FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-5, 1e16, 1e308,
                     -1e308, 3.0, -12345678.0, 2.0**53, 0.1]),
)
NAMES = st.text(alphabet='ab ,"\'\n\r\u00e9', min_size=1, max_size=5)


class TestWriteCsv:
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_bytes_equal_csv_writer(self, tmp_path_factory, data):
        n = data.draw(st.integers(1, 12))
        p = data.draw(st.integers(1, 4))
        X = data.draw(arrays(np.float64, (n, p), elements=FINITE))
        y = data.draw(arrays(np.float64, (n,), elements=FINITE))
        names = tuple(data.draw(NAMES) for _ in range(p))
        ds = Dataset(X, y, names, data.draw(NAMES))
        folder = tmp_path_factory.mktemp("write")
        write_csv(ds, folder / "got.csv")
        reference_write(ds, folder / "want.csv")
        assert (folder / "got.csv").read_bytes() == (folder / "want.csv").read_bytes()

    def test_bytes_equal_csv_writer_across_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr("dafr.dataset._WRITE_ROWS", 7)
        ds = make_ds(n=30, p=3, seed=5)
        write_csv(ds, tmp_path / "got.csv")
        reference_write(ds, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def reference_cell(text, row, column):
    """The per-cell parse every CSV loader must agree with, bit for bit."""
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


def reference_parse(rows, columns, header):
    """Row by row, cells in the order of ``columns``; raises for the first bad one."""
    return np.array([[reference_cell(row[j], i, header[j]) for j in columns]
                     for i, row in enumerate(rows, start=1)])


WHITESPACE = st.text(alphabet=" \t\x0b\x0c\x1c\x1f\x85\xa0\u2003\u2028\u3000", max_size=2)
NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**25, 10**25).map(str),
    st.sampled_from(["1_0", "-1_000.5", "+7", "-0", ".5", "5.", "1E-3", "\u0661\u0662",
                     "\uff13", "1e-400"]),
)
HOSTILE = st.one_of(
    st.sampled_from(["", "nan", "-nan", "NaN", "inf", "-inf", "+Infinity", "1e400",
                     "-1e400", "1__0", "_1", "1_", "0x10", "--1", "1e", ".", "abc",
                     "1,5", '"2"', "1\n2"]),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
            max_size=4),
)


@st.composite
def tables(draw):
    n_cols = draw(st.integers(2, 4))
    n_rows = draw(st.integers(1, 5))
    body = NUMBER if draw(st.booleans()) else st.one_of(NUMBER, HOSTILE)
    cell = st.tuples(WHITESPACE, body, WHITESPACE).map("".join)
    rows = [[draw(cell) for _ in range(n_cols)] for _ in range(n_rows)]
    header = [f"c{j}" for j in range(n_cols)]
    target = draw(st.integers(0, n_cols - 1))
    features = draw(st.permutations([j for j in range(n_cols) if j != target]))
    return header, rows, target, features


class TestCsvDifferential:
    @given(table=tables())
    @settings(max_examples=300, deadline=None)
    def test_loaders_match_per_cell_parse(self, tmp_path_factory, table):
        header, rows, target, features = table
        path = tmp_path_factory.mktemp("csv") / "cells.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([header] + rows)
        names = [header[j] for j in features]
        cases = [
            (lambda: load_csv(path, header[target], names), [target, *features]),
            (lambda: load_feature_csv(path, names), features),
        ]
        for load, columns in cases:
            try:
                expected = reference_parse(rows, columns, header)
            except CellError as err:
                with pytest.raises(CellError) as got:
                    load()
                assert str(got.value) == str(err)
                continue
            got = load()
            if isinstance(got, Dataset):
                got = np.column_stack([got.target, got.features])
            else:
                got = got[0]
            assert got.tobytes() == expected.tobytes()


class TestSplit:
    def test_sizes_round_to_nearest(self):
        ds = make_ds(100)
        train, test = train_test_split(ds, 0.2, seed=7)
        assert (train.n_rows, test.n_rows) == (80, 20)
        train, test = train_test_split(make_ds(101), 0.25, seed=7)
        # round(25.25) = 25
        assert (train.n_rows, test.n_rows) == (76, 25)

    def test_deterministic_and_disjoint(self):
        ds = make_ds(60)
        t1, e1 = train_test_split(ds, 0.3, seed=11)
        t2, e2 = train_test_split(ds, 0.3, seed=11)
        assert np.array_equal(t1.features, t2.features)
        assert np.array_equal(e1.target, e2.target)
        t3, _ = train_test_split(ds, 0.3, seed=12)
        assert not np.array_equal(t1.target, t3.target)
        # every original row lands on exactly one side
        all_y = np.sort(np.concatenate([t1.target, e1.target]))
        assert np.array_equal(all_y, np.sort(ds.target))

    def test_row_order_is_sorted_by_original_index(self):
        ds = make_ds(50)
        train, test = train_test_split(ds, 0.2, seed=3)
        pos = {float(v): i for i, v in enumerate(ds.target)}
        train_pos = [pos[float(v)] for v in train.target]
        test_pos = [pos[float(v)] for v in test.target]
        assert train_pos == sorted(train_pos)
        assert test_pos == sorted(test_pos)

    def test_too_small_train_side_rejected(self):
        ds = make_ds(40)
        with pytest.raises(ValueError, match="at least 30"):
            train_test_split(ds, 0.9, seed=0)

    def test_fraction_bounds(self):
        ds = make_ds(100)
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="test_fraction"):
                train_test_split(ds, bad, seed=0)


class TestScaler:
    def test_known_column(self):
        s = Scaler.fit(np.array([[2.0], [4.0], [6.0]]))
        assert s.means[0] == 4.0
        assert s.stddevs[0] == 2.0
        z = s.transform([[2.0], [4.0], [6.0]])
        assert np.array_equal(z.ravel(), [-1.0, 0.0, 1.0])

    def test_constant_column_flagged_and_invertible(self):
        X = np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
        s = Scaler.fit(X)
        assert s.stddevs[0] == 1.0
        z = s.transform(X)
        assert np.all(z[:, 0] == 0.0)

    def test_needs_two_rows(self):
        with pytest.raises(ValueError, match="at least 2 rows"):
            Scaler.fit(np.ones((1, 2)))

    def test_width_check(self):
        s = Scaler.fit(np.random.default_rng(0).normal(size=(5, 3)))
        with pytest.raises(ValueError, match="3 columns"):
            s.transform(np.ones((2, 2)))

    def test_json_round_trip(self):
        s = fit_scaler(make_ds(8, 3))
        back = Scaler.from_json(s.to_json())
        assert np.array_equal(back.means, s.means)
        assert np.array_equal(back.stddevs, s.stddevs)
