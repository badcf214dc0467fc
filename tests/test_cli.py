"""End-to-end tests of the command line driven in process."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dafr
from dafr import experiments, simfn
from dafr.cli import SUMMARY_ROWS, SUMMARY_STREAM, main
from dafr.dataset import load_feature_csv, seeded_sample
from dafr.pipeline import dafr_score, load_model
from dafr.simfn import KnnRouter, SegmentLabel


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(*argv):
    return main(list(argv))


def make_data(path="pw.csv", n=400, kind="piecewise_three", seed=3):
    assert run("synth", "--kind", kind, "--n", str(n), "--seed", str(seed),
               "--out", path) == 0
    return Path(path)


def read_rows(path):
    with Path(path).open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestSynth:
    def test_writes_csv_and_config(self, workdir):
        make_data("data.csv", n=60)
        assert (workdir / "data.csv").exists()
        sidecar = json.loads((workdir / "data.config.json").read_text())
        assert sidecar["command"] == "synth"
        assert sidecar["generator"]["kind"] == "piecewise_three"
        assert sidecar["generator"]["seed"] == 3
        assert len(read_rows("data.csv")) == 61

    def test_deterministic_output(self, workdir):
        make_data("a.csv", n=50, seed=9)
        make_data("b.csv", n=50, seed=9)
        assert (workdir / "a.csv").read_bytes() == (workdir / "b.csv").read_bytes()

    def test_bad_kind_is_pipeline_error(self, workdir, capsys):
        assert run("synth", "--kind", "zigzag", "--out", "x.csv") == 3
        assert "kind must be one of" in capsys.readouterr().err


class TestTrain:
    def test_writes_model_profiles_summary_config(self, workdir):
        make_data()
        assert run("train", "--data", "pw.csv", "--target", "y",
                   "--out", "model.json") == 0
        for name in ("model.json", "model.summary.txt", "model.config.json",
                     "model.profile_before.csv", "model.profile_after.csv"):
            assert (workdir / name).exists(), name
        summary = (workdir / "model.summary.txt").read_text()
        assert "mape: baseline" in summary
        assert "segments: front=" in summary
        config = json.loads((workdir / "model.config.json").read_text())
        assert config["command"] == "train"
        assert config["k"] == 5 and config["q_front"] == 0.3

    def test_missing_target_flag_is_usage_error(self, workdir, capsys):
        make_data()
        assert run("train", "--data", "pw.csv") == 2
        assert "--target" in capsys.readouterr().err

    def test_missing_file(self, workdir, capsys):
        assert run("train", "--data", "absent.csv", "--target", "y") == 2
        assert capsys.readouterr().err.startswith("input:")

    def test_segment_too_small_exit_3(self, workdir, capsys):
        make_data(n=60)
        code = run("train", "--data", "pw.csv", "--target", "y",
                   "--q-front", "0.95", "--q-back", "0.99")
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("segment-too-small:")
        assert "back" in err

    def test_zero_target_exit_3(self, workdir, capsys):
        rows = ["a,y"] + [f"{i},{i if i else 0}" for i in range(50)]
        Path("zero.csv").write_text("\n".join(rows) + "\n")
        assert run("train", "--data", "zero.csv", "--target", "y") == 3
        assert capsys.readouterr().err.startswith("zero-target:")

    def test_holdout_split_writes_file(self, workdir):
        make_data(n=200)
        assert run("train", "--data", "pw.csv", "--target", "y",
                   "--test-fraction", "0.2", "--seed", "5",
                   "--out", "model.json") == 0
        holdout = read_rows("model.holdout.csv")
        assert len(holdout) == 41
        assert "holdout" in (workdir / "model.summary.txt").read_text()

    def test_two_models_from_one_csv_keep_their_own_profiles(self, workdir):
        make_data(n=200)
        names = [f"{m}.profile_{side}.csv" for m in ("a", "b") for side in ("before", "after")]
        assert run("train", "--data", "pw.csv", "--target", "y", "--out", "a.json") == 0
        first = {name: (workdir / name).read_bytes() for name in names[:2]}
        assert run("train", "--data", "pw.csv", "--target", "y", "--out", "b.json",
                   "--test-fraction", "0.2") == 0
        # a's profiles are still a's; b's, fit on 160 rows, count fewer
        assert {name: (workdir / name).read_bytes() for name in names[:2]} == first
        counts = [sum(int(row[1]) for row in read_rows(name)[1:]) for name in names]
        assert counts == [200, 200, 160, 160]

    def test_rerun_from_config_is_byte_identical(self, workdir):
        make_data()
        assert run("train", "--data", "pw.csv", "--target", "y",
                   "--out", "model.json") == 0
        outputs = ["model.json", "model.summary.txt", "model.config.json",
                   "model.profile_before.csv", "model.profile_after.csv"]
        snapshot = {name: (workdir / name).read_bytes() for name in outputs}
        assert run("train", "--config", "model.config.json") == 0
        for name in outputs:
            assert (workdir / name).read_bytes() == snapshot[name], name

    def test_explicit_flags_override_config(self, workdir):
        make_data()
        assert run("train", "--data", "pw.csv", "--target", "y",
                   "--out", "model.json") == 0
        assert run("train", "--config", "model.config.json", "--k", "3",
                   "--out", "model3.json") == 0
        with open("model3.json") as fh:
            assert json.load(fh)["router"]["k"] == 3

    def test_config_from_other_command_rejected(self, workdir, capsys):
        make_data("d.csv", n=50)
        assert run("train", "--config", "d.config.json") == 2
        assert "written by 'synth'" in capsys.readouterr().err

    def test_does_not_mutate_input(self, workdir):
        make_data()
        before = (workdir / "pw.csv").read_bytes()
        assert run("train", "--data", "pw.csv", "--target", "y") == 0
        assert (workdir / "pw.csv").read_bytes() == before


class TestTrainSummary:
    def test_rows_are_routed_leave_one_out(self, workdir):
        make_data(n=200)
        assert run("train", "--data", "pw.csv", "--target", "y", "--k", "1",
                   "--out", "model.json") == 0
        lines = (workdir / "model.summary.txt").read_text().splitlines()
        assert lines[2] == "routed figures: leave-one-out on all 200 training rows"
        # in-sample routing with k = 1 sends every row to its own segment,
        # which is what profile_after records; left out, rows can be misrouted
        after = read_rows("model.profile_after.csv")[1:]
        in_sample = sum(int(r[1]) * float(r[4]) for r in after) / 200
        routed = next(line for line in lines if line.startswith("mape: "))
        assert float(routed.rsplit(" ", 1)[1]) != pytest.approx(in_sample, rel=1e-5)

    def test_large_input_routes_a_fixed_sample(self, workdir, monkeypatch):
        n = SUMMARY_ROWS + 500
        make_data(n=n)
        queries = []
        k_nearest = simfn._k_nearest

        def counting(refs, ref_sq, Z, k, work):
            queries.append(Z.shape[0])
            return k_nearest(refs, ref_sq, Z, k, work)

        monkeypatch.setattr(simfn, "_k_nearest", counting)
        assert run("train", "--data", "pw.csv", "--target", "y", "--seed", "4",
                   "--out", "model.json") == 0
        assert sum(queries) == SUMMARY_ROWS
        summary = (workdir / "model.summary.txt").read_text()
        assert (f"routed figures: leave-one-out on {SUMMARY_ROWS} of {n} "
                f"training rows (seed 4)") in summary

    def test_says_when_routing_loses(self, workdir):
        make_data("ht.csv", n=300, kind="hetero_tails", seed=1)
        assert run("train", "--data", "ht.csv", "--target", "y", "--out", "ht.json") == 0
        summary = (workdir / "ht.summary.txt").read_text()
        assert "routed is worse than baseline on these rows" in summary
        make_data(n=300)
        assert run("train", "--data", "pw.csv", "--target", "y", "--out", "pw.json") == 0
        assert "worse" not in (workdir / "pw.summary.txt").read_text()

    def test_summary_draws_from_another_stream_than_the_split(self, workdir, monkeypatch):
        n = SUMMARY_ROWS + 500
        make_data(n=n)
        drawn = []
        route_left_out = KnnRouter.route_left_out

        def recording(router, rows):
            drawn.append(rows)
            return route_left_out(router, rows)

        monkeypatch.setattr(KnnRouter, "route_left_out", recording)
        assert run("train", "--data", "pw.csv", "--target", "y", "--seed", "4",
                   "--out", "model.json") == 0
        assert np.array_equal(drawn[0], seeded_sample(n, SUMMARY_ROWS, 4 ^ SUMMARY_STREAM))
        assert not np.array_equal(drawn[0], seeded_sample(n, SUMMARY_ROWS, 4))

    def test_train_score_diagnose_do_not_load_numpy_random(self, workdir):
        # 2,400 training rows after the split: more than SUMMARY_ROWS, so the
        # summary draws its sample too
        make_data(n=3000)
        src = str(Path(dafr.__file__).resolve().parents[1])
        code = """
import sys
from dafr.cli import main
for argv in ("train --data pw.csv --target y --test-fraction 0.2 --out model.json",
             "score --model model.json --data model.holdout.csv --target y --out scored.csv",
             "diagnose --model model.json --data model.holdout.csv --target y --out report.json"):
    if main(argv.split()) != 0:
        sys.exit(argv)
print("numpy.random" in sys.modules)
"""
        proc = subprocess.run([sys.executable, "-c", code], cwd=workdir,
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
        assert f"on {SUMMARY_ROWS} of 2400 training rows" in Path("model.summary.txt").read_text()

    def test_cli_import_does_not_load_experiments(self):
        src = str(Path(dafr.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        code = "import sys, dafr.cli; print('dafr.experiments' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


def reference_predictions(model_path, data_path, out, trace):
    """A per-row csv.writer loop over dafr_score's result: the reference for
    the bytes of score's predictions file."""
    result = dafr_score(load_model(model_path), load_feature_csv(data_path, exclude=("y",))[0])
    header = ["row", "segment", "prediction"]
    if trace:
        header.append("nearest_distance")
    with Path(out).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(result.predictions.shape[0]):
            row = [i + 1, SegmentLabel(int(result.segments[i])).tag,
                   repr(float(result.predictions[i]))]
            if trace:
                row.append(repr(float(result.nearest_distance[i])))
            writer.writerow(row)


class TestScore:
    def setup_model(self):
        make_data()
        assert run("train", "--data", "pw.csv", "--target", "y",
                   "--out", "model.json") == 0

    def test_score_training_csv(self, workdir):
        self.setup_model()
        assert run("score", "--model", "model.json", "--data", "pw.csv",
                   "--target", "y") == 0
        rows = read_rows("pw.predictions.csv")
        assert rows[0] == ["row", "segment", "prediction"]
        assert len(rows) == 401
        assert [r[0] for r in rows[1:4]] == ["1", "2", "3"]
        assert rows[1][1] in ("front", "mid", "back")
        float(rows[1][2])

    def test_trace_adds_distance_column(self, workdir):
        self.setup_model()
        assert run("score", "--model", "model.json", "--data", "pw.csv",
                   "--target", "y", "--trace", "--out", "traced.csv") == 0
        rows = read_rows("traced.csv")
        assert rows[0] == ["row", "segment", "prediction", "nearest_distance"]
        assert float(rows[1][3]) >= 0.0

    @pytest.mark.parametrize("trace", [[], ["--trace"]])
    def test_predictions_equal_the_row_loop(self, workdir, trace):
        self.setup_model()
        make_data("queries.csv", n=500, kind="hetero_tails", seed=8)
        assert run("score", "--model", "model.json", "--data", "queries.csv",
                   "--target", "y", "--out", "got.csv", *trace) == 0
        reference_predictions("model.json", "queries.csv", "want.csv", bool(trace))
        assert Path("got.csv").read_bytes() == Path("want.csv").read_bytes()

    def test_width_mismatch_exit_3(self, workdir, capsys):
        self.setup_model()
        # not excluding the target column makes the matrix one column too wide
        assert run("score", "--model", "model.json", "--data", "pw.csv") == 3
        assert capsys.readouterr().err.startswith("width-mismatch:")

    def test_corrupted_model_exit_3(self, workdir, capsys):
        make_data()
        Path("broken.json").write_text("{oops")
        assert run("score", "--model", "broken.json", "--data", "pw.csv") == 3
        assert capsys.readouterr().err.startswith("model-parse:")

    def test_missing_model_file(self, workdir, capsys):
        make_data()
        assert run("score", "--model", "absent.json", "--data", "pw.csv") == 2
        assert capsys.readouterr().err.startswith("input:")


class TestDiagnose:
    def setup_model(self):
        make_data()
        assert run("train", "--data", "pw.csv", "--target", "y",
                   "--out", "model.json") == 0

    def test_report_and_paired_profile(self, workdir):
        self.setup_model()
        assert run("diagnose", "--model", "model.json", "--data", "pw.csv",
                   "--target", "y", "--out", "report.json") == 0
        report = json.loads((workdir / "report.json").read_text())
        assert report["n_rows"] == 400
        assert report["overall"]["baseline"]["mape"] > report["overall"]["dafr"]["mape"]
        rows = read_rows("report.profiles.csv")
        assert rows[0] == ["bin", "baseline_mape", "dafr_mape"]
        assert len(rows) == 11

    def test_weighted_bins_reproduce_overall(self, workdir):
        self.setup_model()
        assert run("diagnose", "--model", "model.json", "--data", "pw.csv",
                   "--target", "y", "--out", "report.json") == 0
        report = json.loads((workdir / "report.json").read_text())
        for side in ("baseline", "dafr"):
            bins = report["profiles"][side]
            weighted = sum(b["count"] * b["mape"] for b in bins) / sum(
                b["count"] for b in bins)
            assert weighted == pytest.approx(report["overall"][side]["mape"],
                                             rel=1e-10)

    def test_missing_target_column_exit_2(self, workdir, capsys):
        self.setup_model()
        assert run("diagnose", "--model", "model.json", "--data", "pw.csv",
                   "--target", "zzz") == 2
        assert capsys.readouterr().err.startswith("input:")


class TestCompare:
    def test_summary_rows_and_aggregate(self, workdir):
        assert run("compare", "--synth-kind", "piecewise_three", "--n", "300",
                   "--seeds", "0,1,2", "--out", "cmp.csv") == 0
        rows = read_rows("cmp.csv")
        assert rows[0] == ["seed", "baseline_mape", "dafr_mape", "oracle_mape",
                           "result", "error"]
        assert len(rows) == 5
        assert rows[-1][0] == "aggregate"
        assert rows[1][4] in ("win", "loss")

    def test_file_data_source(self, workdir):
        make_data(n=300)
        assert run("compare", "--data", "pw.csv", "--target", "y",
                   "--seeds", "1,2", "--out", "cmp.csv") == 0
        assert len(read_rows("cmp.csv")) == 4

    def test_all_seeds_failing_exits_3(self, workdir, capsys):
        rows = ["a,y"] + [f"{i},0" for i in range(60)]
        Path("zeros.csv").write_text("\n".join(rows) + "\n")
        assert run("compare", "--data", "zeros.csv", "--target", "y",
                   "--seeds", "0,1", "--out", "cmp.csv") == 3
        assert "every seed failed" in capsys.readouterr().err
        table = read_rows("cmp.csv")
        assert len(table) == 3
        assert table[1][5] != ""

    def test_error_cell_is_quoted_as_csv_writer_quotes(self, workdir, monkeypatch):
        message = 'split "a", then b'

        def failing_run(ds, seed, **kwargs):
            raise ValueError(message)

        monkeypatch.setattr(experiments, "compare_run", failing_run)
        assert run("compare", "--n", "60", "--seeds", "4", "--out", "cmp.csv") == 3
        want = io.StringIO()
        csv.writer(want).writerows([["seed", "baseline_mape", "dafr_mape", "oracle_mape",
                                     "result", "error"], [4, "", "", "", "", message]])
        assert Path("cmp.csv").read_bytes() == want.getvalue().encode()
        assert b'"split ""a"", then b"' in Path("cmp.csv").read_bytes()

    def test_bad_seed_list_is_usage_error(self, workdir, capsys):
        assert run("compare", "--seeds", "1,two") == 2
        assert "--seeds" in capsys.readouterr().err

    @pytest.mark.parametrize("seeds", ["-1", "0,18446744073709551616"])
    def test_seed_outside_64_bits_writes_nothing(self, workdir, seeds):
        assert run("compare", "--n", "60", "--seeds", seeds, "--out", "cmp.csv") == 2
        assert not list(workdir.iterdir())


class TestParser:
    def test_unknown_command(self, workdir):
        assert run("bogus") == 2

    def test_unknown_flag(self, workdir):
        assert run("train", "--frobnicate") == 2

    def test_no_command(self, workdir):
        assert run() == 2

    def test_log_env_accepted(self, workdir, monkeypatch):
        monkeypatch.setenv("DAFR_LOG", "debug")
        make_data("logged.csv", n=40)
        assert (workdir / "logged.csv").exists()


def _config_file(content):
    Path("hostile.json").write_text(content)
    return ["train", "--config", "hostile.json"]


def _model_file(edit):
    make_data(n=200)
    assert run("train", "--data", "pw.csv", "--target", "y", "--out", "model.json") == 0
    doc = json.loads(Path("model.json").read_text())
    edit(doc)
    Path("model.json").write_text(json.dumps(doc))
    return ["score", "--model", "model.json", "--data", "pw.csv", "--target", "y"]


def _out_directory(command, out):
    make_data(n=200)
    model = []
    if command != "train":
        assert run("train", "--data", "pw.csv", "--target", "y", "--out", "model.json") == 0
        Path(out).mkdir()
        model = ["--model", "model.json"]
    return [command, *model, "--data", "pw.csv", "--target", "y", "--out", out]


def _tiny_holdout():
    make_data(n=200)
    return ["train", "--data", "pw.csv", "--target", "y", "--test-fraction", "0.001"]


HOSTILE = {
    "config-list": (lambda: _config_file("[]"), 2, "input: hostile.json: expected"),
    "config-string": (lambda: _config_file('"x"'), 2, "input: hostile.json: expected"),
    "integer-router-labels": (
        lambda: _model_file(lambda doc: doc["router"].update(labels=[0, 1] * 100)),
        3, "model-parse: malformed model document: segment tag must be a string"),
    "empty-profile": (
        lambda: _model_file(lambda doc: doc["profiles"].update(before=[])),
        3, "model-parse: malformed model document: no profile rows"),
    "float-router-k": (
        lambda: _model_file(lambda doc: doc["router"].update(k=5.7)),
        3, "model-parse: malformed model document: 'k' must be an integer, got 5.7"),
    "empty-holdout": (_tiny_holdout, 3, "pipeline: test_fraction 0.001 of 200 rows"),
    "train-out-dot": (lambda: _out_directory("train", "."),
                      3, "io: [Errno 21] Is a directory: '.'"),
    "score-out-directory": (lambda: _out_directory("score", "outdir"),
                            3, "io: [Errno 21] Is a directory: 'outdir'"),
    "diagnose-out-directory": (lambda: _out_directory("diagnose", "outdir"),
                               3, "io: [Errno 21] Is a directory: 'outdir'"),
    "flag-seeds=-1": (lambda: ["compare", "--seeds=-1"],
                      2, "usage: --seeds must each be in [0, 2^64), got -1"),
    "flag-seeds=2^64": (lambda: ["compare", "--seeds", "3,18446744073709551616"],
                        2, "usage: --seeds must each be in [0, 2^64), got 18446744073709551616"),
}
# hand-edited sidecar values of the wrong JSON type: option -> (value, expected type)
WRONG_TYPES = {
    "k": ('"abc"', "int"), "q_front": ('"x"', "float"), "test_fraction": ('"0.2"', "float"),
    "bins": ("2.5", "int"), "out": ("5", "str"), "data": ('["pw.csv"]', "str"),
    "features": ('["x0"]', "str"),
}
for _key, (_value, _typ) in WRONG_TYPES.items():
    HOSTILE[f"config-{_key}-type"] = (
        lambda key=_key, value=_value: _config_file(f'{{"command": "train", "{key}": {value}}}'),
        2, f'input: hostile.json: option "{_key}" must be {_typ}, got {_value}')
# sidecar values of the right type but out of range: (option, value, valid range)
OUT_OF_RANGE = [
    ("k", "0", "at least 1"), ("k", "-3", "at least 1"),
    ("q_front", "2.0", "in (0, 1)"), ("q_front", "NaN", "in (0, 1)"),
    ("bins", "0", "at least 1"), ("test_fraction", "1.5", "in (0, 1)"),
    ("ridge", "-1", "finite and at least 0"), ("seed", "-1", "in [0, 2^64)"),
    ("seed", "18446744073709551616", "in [0, 2^64)"),
]
for _key, _value, _must in OUT_OF_RANGE:
    HOSTILE[f"config-{_key}={_value}"] = (
        lambda key=_key, value=_value: _config_file(f'{{"command": "train", "{key}": {value}}}'),
        2, f'usage: option "{_key}" must be {_must}, got {_value.lower()}')
    HOSTILE[f"flag-{_key}={_value}"] = (
        lambda key=_key, value=_value: ["train", f"--{key.replace('_', '-')}", value],
        2, f'usage: option "{_key}" must be {_must}, got {_value.lower()}')


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_hostile_input_gives_one_error_line(workdir, capsys, case):
    make_argv, code, prefix = HOSTILE[case]
    argv = make_argv()
    capsys.readouterr()
    assert run(*argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert err.startswith(prefix)
    assert not list(workdir.rglob("*.tmp"))


# one session in a fresh process: each command in turn, then the process's
# thread count, which shows whether OpenBLAS took OPENBLAS_NUM_THREADS
SESSION = """
import sys
from dafr.cli import main
for argv in ("synth --kind hetero_tails --n 20000 --p 8 --seed 5 --out data.csv",
             "train --data data.csv --target y --test-fraction 0.2 --out model.json",
             "score --model model.json --data model.holdout.csv --target y --trace --out scored.csv",
             "diagnose --model model.json --data model.holdout.csv --target y --out report.json"):
    if main(argv.split()) != 0:
        sys.exit(argv)
with open("/proc/self/status", encoding="ascii") as fh:
    print(next(line for line in fh if line.startswith("Threads:")).split()[1])
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads Threads: from /proc")
@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="OpenBLAS runs one thread on one CPU")
def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # at 20k x 8 rows OpenBLAS hands work to its pool: on a 2-CPU host its
    # second thread used about 1.3 s of CPU time over this session
    src = str(Path(dafr.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        run_dir = tmp_path / f"threads-{threads}"
        run_dir.mkdir()
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", SESSION], cwd=run_dir, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == threads
        outputs.append({path.name: path.read_bytes() for path in run_dir.iterdir()})
    # the data, model, holdout, summary, scores and report, four sidecars, three profiles
    assert len(outputs[0]) == 13
    assert outputs[0] == outputs[1]
