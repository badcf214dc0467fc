"""End-to-end tests of the command line driven in process."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dafr
from dafr import simfn
from dafr.cli import SUMMARY_ROWS, main


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
                     "pw.profile_before.csv", "pw.profile_after.csv"):
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

    def test_rerun_from_config_is_byte_identical(self, workdir):
        make_data()
        assert run("train", "--data", "pw.csv", "--target", "y",
                   "--out", "model.json") == 0
        outputs = ["model.json", "model.summary.txt", "model.config.json",
                   "pw.profile_before.csv", "pw.profile_after.csv"]
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
        after = read_rows("pw.profile_after.csv")[1:]
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

    def test_cli_import_does_not_load_experiments(self):
        src = str(Path(dafr.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        code = "import sys, dafr.cli; print('dafr.experiments' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


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

    def test_bad_seed_list_is_usage_error(self, workdir, capsys):
        assert run("compare", "--seeds", "1,two") == 2
        assert "--seeds" in capsys.readouterr().err


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
    "empty-holdout": (_tiny_holdout, 3, "pipeline: test_fraction 0.001 of 200 rows"),
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
    ("ridge", "-1", "finite and at least 0"), ("seed", "-1", "at least 0"),
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
