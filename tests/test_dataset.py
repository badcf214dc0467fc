"""Tests for CSV loading, seeded sampling and splitting, and standardization."""

import ast
import csv
import hashlib
import math
import os
import stat
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dafr import dataset
from dafr.dataset import (
    Dataset,
    Scaler,
    fit_scaler,
    load_csv,
    load_feature_csv,
    seeded_sample,
    train_test_split,
    write_csv,
    write_rows,
)
from dafr.errors import CellError, InputError
from dafr.metrics import DecileProfile, decile_mape_profile, write_profile_csv


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


def profile():
    y = np.arange(1.0, 41.0)
    return decile_mape_profile(y, 1.1 * y)


def failing_after(items, n):
    """The first ``n`` of ``items``, then an error: a write that dies part-way."""
    yield from items[:n]
    raise RuntimeError("disk went away")


def write_csv_failing(path, monkeypatch):
    monkeypatch.setattr(dataset, "_WRITE_ROWS", 4)
    column_stack, calls = np.column_stack, []

    def failing_on_second_block(arrays):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("disk went away")
        return column_stack(arrays)

    monkeypatch.setattr(np, "column_stack", failing_on_second_block)
    write_csv(make_ds(n=10, seed=1), path)


# writer -> (a complete write to path, a different write that fails part-way)
WRITERS = {
    "write_csv": (lambda path: write_csv(make_ds(n=10), path), write_csv_failing),
    "write_profile_csv": (
        lambda path: write_profile_csv(profile(), path),
        lambda path, monkeypatch: write_profile_csv(
            DecileProfile(failing_after(profile().bins[::-1], 3), 1.0), path)),
    "write_rows": (
        lambda path: write_rows(path, ["a", "b"], [[1, 0.1], ["x,y", 'say "hi"']]),
        lambda path, monkeypatch: write_rows(path, ["b", "a"], failing_after([[2, 0.2]], 1))),
}


def file_writes(source):
    """Line numbers of the calls in ``source``, outside ``atomic_write``, that
    open a file to write: ``open`` or ``.open`` with a mode that is not
    read-only (a path or flags given as the first argument of ``x.open``
    count too), ``.write_text`` and ``.write_bytes``."""
    tree = ast.parse(source)
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == "atomic_write"
              for node in ast.walk(fn)}
    lines = []
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call) or id(call) in inside:
            continue
        func = call.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        first = 1 if isinstance(func, ast.Name) else 0  # open(file, mode) vs path.open(mode)
        modes = call.args[first:first + 1] + [k.value for k in call.keywords if k.arg == "mode"]
        if name in ("write_text", "write_bytes") or name == "open" and any(
                not (isinstance(m, ast.Constant) and isinstance(m.value, str)
                     and set(m.value) <= set("rbt")) for m in modes):
            lines.append(call.lineno)
    return lines


class TestAtomicWrite:
    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch, writer):
        write, write_failing = WRITERS[writer]
        path = tmp_path / "out.csv"
        write(path)
        before = path.read_bytes()
        with pytest.raises(RuntimeError, match="disk went away"):
            write_failing(path, monkeypatch)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_error_names_the_target(self, tmp_path, writer):
        target = tmp_path / "absent" / "out.csv"
        with pytest.raises(FileNotFoundError) as err:
            WRITERS[writer][0](target)
        assert err.value.filename == str(target)

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_fifo_target_gets_the_bytes_in_place(self, tmp_path, writer):
        write = WRITERS[writer][0]
        write(tmp_path / "regular.csv")
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()),
                                  daemon=True)
        reader.start()
        write(fifo)
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert received == [(tmp_path / "regular.csv").read_bytes()]
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe", "regular.csv"]

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_symlink_target_is_written_through(self, tmp_path, writer):
        write = WRITERS[writer][0]
        write(tmp_path / "regular.csv")
        (tmp_path / "linked.csv").write_text("old")
        link = tmp_path / "link"
        link.symlink_to("linked.csv")
        write(link)
        assert link.is_symlink()
        assert (tmp_path / "linked.csv").read_bytes() == (tmp_path / "regular.csv").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "linked.csv", "regular.csv"]

    def test_guard_finds_each_kind_of_write(self):
        source = ('open(p, "w")\nPath(p).open(mode="a")\np.write_text("x")\n'
                  'open(p)\nPath(p).open(newline="")\nopen(p, "rb")\n'
                  'def atomic_write(p):\n    open(p, "w")\n')
        assert file_writes(source) == [1, 2, 3]

    def test_every_file_write_goes_through_atomic_write(self):
        package = Path(dataset.__file__).parent
        found = {path.name: file_writes(path.read_text(encoding="utf-8"))
                 for path in sorted(package.glob("*.py"))}
        assert {name: lines for name, lines in found.items() if lines} == {}


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


# cells numpy's C reader takes as they are, so the whole table takes the fast path
PLAIN = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**25, 10**25).map(str),
)


@st.composite
def tables(draw):
    n_cols = draw(st.integers(2, 4))
    n_rows = draw(st.integers(1, 5))
    body = draw(st.sampled_from([PLAIN, NUMBER, st.one_of(NUMBER, HOSTILE)]))
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


def write_bytes(path, text):
    path.write_bytes(text.encode("utf-8"))
    return path


# files on both sides of the numpy fast path: value rows are [target, a]
READ_CASES = {
    "lf": ("a,y\n1,2\n3,4\n", [[2, 1], [4, 3]]),
    "crlf": ("a,y\r\n1,2\r\n3,4\r\n", [[2, 1], [4, 3]]),
    "cr-only": ("a,y\r1,2\r3,4\r", [[2, 1], [4, 3]]),
    "blank-lines": ("a,y\n\n1,2\n\r\n\n3,4", [[2, 1], [4, 3]]),
    "nbsp": ("a,y\n\xa01\xa0,\u20032 \n", [[2, 1]]),
    "quoted": ('a,y\n"1",2\n', [[2, 1]]),
    "underscore": ("a,y\n1_0,2\n", [[2, 10]]),
    "arabic-indic": ("a,y\n\u0661,2\n", [[2, 1]]),
    "unused-text-column": ("a,name,y\n1,foo,2\n3,bar,4\n", [[2, 1], [4, 3]]),
    "wider-rows": ("a,y\n1,2,3\n4,5,6\n", "row 1 has 3 cells, header has 2"),
    "whitespace-line": ("a,y\n1,2\n \n3,4\n", "row 2 has 1 cells, header has 2"),
    "hash": ("a,y\n1,2\n#1,4\n", "non-numeric value '#1' at row 2, column 'a'"),
    "overflow": ("a,y\n1,2\n1e400,4\n", "non-finite value '1e400' at row 2, column 'a'"),
}


class TestCsvFastPath:
    @pytest.mark.parametrize("case", sorted(READ_CASES))
    def test_values_and_errors(self, tmp_path, case):
        text, expected = READ_CASES[case]
        path = write_bytes(tmp_path / "data.csv", text)
        if isinstance(expected, str):
            with pytest.raises(InputError) as err:
                load_csv(path, "y")
            assert str(err.value).endswith(expected)
            return
        ds = load_csv(path, "y")
        assert ds.feature_names == ("a",)
        assert np.column_stack([ds.target, ds.features]).tolist() == expected

    def test_single_column_whitespace_line_is_an_empty_cell(self, tmp_path):
        path = write_bytes(tmp_path / "data.csv", "a\n1\n \n3\n")
        with pytest.raises(CellError, match=r"^empty cell at row 2, column 'a'$"):
            load_feature_csv(path)

    def test_byte_order_mark_stays_in_the_first_name(self, tmp_path):
        path = write_bytes(tmp_path / "data.csv", "\ufeffa,y\n1,2\n")
        ds = load_csv(path, "y")
        assert ds.feature_names == ("\ufeffa",)
        assert ds.features.tolist() == [[1.0]]

    def test_write_csv_files_skip_the_csv_parse(self, tmp_path, monkeypatch):
        ds = make_ds(n=50, p=3, seed=2)
        write_csv(ds, tmp_path / "data.csv")

        def refuse(*args):
            raise AssertionError("a write_csv file went down the csv path")

        monkeypatch.setattr("dafr.dataset._parse_columns", refuse)
        back = load_csv(tmp_path / "data.csv", "y")
        assert back.features.tobytes() == ds.features.tobytes()
        X, names = load_feature_csv(tmp_path / "data.csv", exclude=("y",))
        assert names == ds.feature_names
        assert X.tobytes() == ds.features.tobytes()

    def test_both_paths_give_the_same_arrays(self, tmp_path):
        # quoting every cell sends the same numbers down the csv path; the
        # memory layout must match too, as column means round by it
        ds = make_ds(n=3000, p=3, seed=6)
        write_csv(ds, tmp_path / "fast.csv")
        with (tmp_path / "slow.csv").open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, quoting=csv.QUOTE_ALL)
            writer.writerow([*ds.feature_names, "y"])
            writer.writerows(np.column_stack([ds.features, ds.target]).tolist())
        fast, slow = load_csv(tmp_path / "fast.csv", "y"), load_csv(tmp_path / "slow.csv", "y")
        fast_X = load_feature_csv(tmp_path / "fast.csv", ["x2", "x0"])[0]
        slow_X = load_feature_csv(tmp_path / "slow.csv", ["x2", "x0"])[0]
        for a, b in ((fast.features, slow.features), (fast.target, slow.target),
                     (fast_X, slow_X)):
            assert a.tobytes() == b.tobytes()
            assert a.strides == b.strides
        assert fit_scaler(fast).means.tobytes() == fit_scaler(slow).means.tobytes()

    def test_load_peak_stays_near_the_result(self, tmp_path):
        rng = np.random.default_rng(4)
        ds = Dataset(rng.normal(size=(20_000, 8)), rng.normal(size=20_000),
                     tuple(f"x{j}" for j in range(8)), "y")
        write_csv(ds, tmp_path / "data.csv")
        del ds
        tracemalloc.start()
        try:
            back = load_csv(tmp_path / "data.csv", "y")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * (back.features.nbytes + back.target.nbytes)

    @pytest.mark.parametrize("text", ["a,y\n", "a,y\n\n\r\n\n"])
    def test_no_rows_raises_without_a_warning(self, tmp_path, text):
        path = write_bytes(tmp_path / "data.csv", text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="no data rows"):
                load_csv(path, "y")


class TestSeededSample:
    def test_keys_follow_the_published_splitmix64(self):
        # the reference C splitmix64 seeded with 0 first outputs 0xE220A8397B1DCDAF,
        # 0x6E789E6AA1B965F4, 0x06C45D188009454F: rows 2, 1, 0 in key order
        assert [seeded_sample(3, size, 0).tolist() for size in (1, 2, 3)] == [
            [2], [1, 2], [0, 1, 2]]

    def test_golden_samples(self):
        assert seeded_sample(10, 3, 0).tolist() == [2, 4, 6]
        rows = seeded_sample(100_000, 20_000, 7)
        assert hashlib.sha256(rows.astype("<i8").tobytes()).hexdigest() == (
            "358d1ecae5fbcd57f84fd506d3dcf41a60b522530125b91628d2bba3a142b268")

    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
    def test_rows_are_distinct_ascending_and_nested(self, seed):
        n = 200
        previous = np.zeros(0, dtype=int)
        for size in range(n + 1):
            rows = seeded_sample(n, size, seed)
            assert rows.shape == (size,)
            assert np.array_equal(rows, np.unique(rows)) and np.isin(rows, np.arange(n)).all()
            assert np.isin(previous, rows).all()
            previous = rows
        assert previous.tolist() == list(range(n))

    def test_seeds_give_their_own_samples(self):
        samples = {tuple(seeded_sample(1000, 50, seed).tolist()) for seed in range(20)}
        assert len(samples) == 20
        assert not np.array_equal(seeded_sample(1000, 50, 0), seeded_sample(1000, 50, 2**64 - 1))

    @pytest.mark.parametrize("seed", [-1, -(2**70), 2**64, 2**64 + 5])
    def test_seeds_outside_64_bits_are_refused(self, seed):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\^64\)"):
            seeded_sample(10, 3, seed)
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\^64\)"):
            train_test_split(make_ds(100), 0.2, seed)


class TestSplit:
    def test_test_rows_are_the_seeded_sample(self):
        ds = make_ds(100)
        train, test = train_test_split(ds, 0.2, seed=7)
        rows = seeded_sample(100, 20, 7)
        assert np.array_equal(test.target, ds.target[rows])
        assert np.array_equal(train.target, np.delete(ds.target, rows))

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

    def test_split_peak_stays_near_the_result(self):
        rng = np.random.default_rng(5)
        ds = Dataset(rng.normal(size=(100_000, 8)), rng.normal(size=100_000),
                     tuple(f"x{j}" for j in range(8)), "y")
        tracemalloc.start()
        try:
            sides = train_test_split(ds, 0.2, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        result = sum(s.features.nbytes + s.target.nbytes for s in sides)
        # the permutation and index arrays beside the rows, each row copied once
        assert peak <= 1.35 * result
        for side in sides:
            assert not side.features.flags.writeable and not side.target.flags.writeable


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
