"""The benchmark's three workloads: inputs made from the seed, one
operation, and the checks on that operation's outputs.

An operation runs either in child processes (``child`` is the harness's
process runner; the end-to-end run) or in this process (``child`` is None;
the traced run, where ``scope`` enters the tracer around the timed calls
only, so the checks are never traced).
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import ingest_child
from dafr import cli, dataset, pipeline, synth

TAGS = ("front", "mid", "back")
TEST_FRACTION = 0.2
SPLIT_SEED = 0  # dafr train's default --seed, which the split uses
QUERY_SEED_OFFSET = 1_000_003
ORACLE_SAMPLE = 256
ROUTE_PROBES = 1000
LSTSQ_RTOL = 1e-8

# Sized so a 35 s run holds ten to twenty operations on a 2-CPU machine:
# the run reports their median, which a single slow operation cannot move.
SIZES = {
    "train_routed": {"n": 5_000, "p": 3},
    "score_wide": {"n": 20_000, "p": 20, "n_query": 400},
    "ingest_large": {"n": 40_000, "p": 8},
}
SMOKE_SIZES = {
    "train_routed": {"n": 300, "p": 3},
    "score_wide": {"n": 400, "p": 20, "n_query": 200},
    "ingest_large": {"n": 500, "p": 8},
}


@dataclass
class Outcome:
    """One operation: wall time per command, peak child RSS and checked outputs."""

    times: dict[str, float] = field(default_factory=dict)
    peak_rss_mb: float | None = None
    model_bytes: int | None = None
    mape: float | None = None
    failures: list[str] = field(default_factory=list)

    @property
    def op_s(self) -> float:
        return sum(self.times.values())


class Workload:
    name = ""
    quality = ""  # name of the MAPE figure the operation reports

    def __init__(self, sizes: dict, seed: int, work: Path):
        self.sizes = sizes
        self.seed = seed
        self.work = work
        self.model = work / "model.json"
        self._first: dict[str, object] = {}

    def setup(self) -> None:
        """Generate inputs and write them; timed as set-up."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed work after the last set-up: reference answers for checks."""

    def operation(self, child=None, scope=nullcontext) -> Outcome:
        raise NotImplementedError

    def probe(self):
        """(router, rows) for single-row routing latency, or None."""
        return None

    def _repeats(self, out: Outcome, what: str, value) -> None:
        """Outputs are deterministic: every repeat must match the first."""
        if self._first.setdefault(what, value) != value:
            out.failures.append(f"{what} differs from the first repeat")

    def _record(self, out: Outcome, model_digest: str, model_bytes: int, mape: float) -> None:
        self._repeats(out, "model bytes", model_digest)
        self._repeats(out, self.quality, mape)
        out.model_bytes, out.mape = model_bytes, mape


class CliWorkload(Workload):
    """Runs ``dafr`` CLI commands: ``cli.main`` in a child process (what the
    ``dafr`` command runs) or in this process."""

    def commands(self) -> list[tuple[str, list[str], list[Path]]]:
        """(timing name, argv after ``dafr``, outputs the command must write)."""
        raise NotImplementedError

    def operation(self, child=None, scope=nullcontext) -> Outcome:
        out = Outcome()
        for label, args, outputs in self.commands():
            for path in outputs:
                path.unlink(missing_ok=True)
            if child is not None:
                res = child(["cli", *args], self.work)
                code, out.times[label] = res.returncode, res.wall_s
                out.peak_rss_mb = max(out.peak_rss_mb or 0.0, res.peak_rss_mb)
                stderr = res.stderr
            else:
                start = perf_counter()
                with scope():
                    code = cli.main(args)
                out.times[label] = perf_counter() - start
                stderr = ""
            if code != 0:
                out.failures.append(f"{label}: exit code {code}: {stderr.strip()[-300:]}")
            missing = [p.name for p in outputs if not p.is_file()]
            if missing:
                out.failures.append(f"{label}: missing output(s) {missing}")
        if not out.failures:
            try:
                self.check(out)
            except Exception as err:  # a crash in a check is a failed operation
                out.failures.append(f"check raised {type(err).__name__}: {err}")
        return out

    def check(self, out: Outcome) -> None:
        raise NotImplementedError


class TrainRouted(CliWorkload):
    """``dafr train --test-fraction 0.2`` on piecewise_three data, p = 3."""

    name = "train_routed"
    quality = "routed_mape_in_sample"

    def __init__(self, sizes, seed, work):
        super().__init__(sizes, seed, work)
        self.data = work / "data.csv"
        self.summary = work / "model.summary.txt"

    def setup(self) -> None:
        self.ds = synth.generate(synth.SynthConfig(
            kind="piecewise_three", n=self.sizes["n"], p=self.sizes["p"], seed=self.seed))
        dataset.write_csv(self.ds, self.data)

    def prepare(self) -> None:
        self.train_ds, _ = dataset.train_test_split(self.ds, TEST_FRACTION, SPLIT_SEED)

    def commands(self):
        return [("train_s", ["train", "--data", str(self.data), "--target", "y",
                             "--test-fraction", str(TEST_FRACTION), "--out", str(self.model)],
                 [self.model, self.summary])]

    def check(self, out: Outcome) -> None:
        data = self.model.read_bytes()
        model = pipeline.load_model(self.model)
        X, y = self.train_ds.features, self.train_ds.target
        want = np.bincount(pipeline.segment_assign(y, model.spec), minlength=3).tolist()
        if np.bincount(model.router.labels, minlength=3).tolist() != want:
            out.failures.append(f"router labels disagree with segment_assign counts {want}")
        text = self.summary.read_text(encoding="utf-8")
        seg = re.search(r"segments: front=(\d+), mid=(\d+), back=(\d+)", text)
        if seg is None or [int(g) for g in seg.groups()] != want:
            out.failures.append(f"summary segment counts are not {want}")
        design = np.column_stack([np.ones(X.shape[0]), X])
        ref = np.linalg.lstsq(design, y, rcond=None)[0]
        got = np.concatenate([[model.baseline.intercept], model.baseline.coefficients])
        rel = float(np.linalg.norm(got - ref) / np.linalg.norm(ref))
        if not rel <= LSTSQ_RTOL:
            out.failures.append(f"baseline differs from lstsq by {rel:.3g} relative")
        routed = re.search(r"^mape: baseline \S+, routed (\S+)$", text, re.MULTILINE)
        if routed is None:
            out.failures.append("summary has no routed MAPE line")
            return
        self._record(out, hashlib.sha256(data).hexdigest(), len(data), float(routed.group(1)))

    def probe(self):
        return pipeline.load_model(self.model).router, self.ds.features[:ROUTE_PROBES]


def knn_vote(refs: np.ndarray, labels: np.ndarray, k: int, z: np.ndarray) -> int:
    """Exhaustive k-NN vote with the README's tie rule: distance ties go to
    the lower reference row, vote ties to the nearest tied label."""
    d2 = np.sum((refs - z) ** 2, axis=1)
    nearest = np.lexsort((np.arange(d2.shape[0]), d2))[:k]
    votes = np.bincount(labels[nearest], minlength=3)
    tied = set(np.flatnonzero(votes == votes.max()).tolist())
    return next(int(labels[i]) for i in nearest if int(labels[i]) in tied)


class ScoreWide(CliWorkload):
    """``dafr score --trace`` then ``dafr diagnose`` on held-out rows,
    against a p = 20 model trained at set-up."""

    name = "score_wide"
    quality = "holdout_mape"

    def __init__(self, sizes, seed, work):
        super().__init__(sizes, seed, work)
        self.queries_csv = work / "queries.csv"
        self.predictions = work / "queries.predictions.csv"
        self.report = work / "queries.report.json"

    def setup(self) -> None:
        n, p, n_query = self.sizes["n"], self.sizes["p"], self.sizes["n_query"]
        train = synth.generate(synth.SynthConfig(
            kind="piecewise_three", n=n, p=p, seed=self.seed))
        self.queries = synth.generate(synth.SynthConfig(
            kind="piecewise_three", n=n_query, p=p, seed=self.seed + QUERY_SEED_OFFSET))
        dataset.write_csv(self.queries, self.queries_csv)
        pipeline.save_model(pipeline.dafr_train(train), self.model)

    def prepare(self) -> None:
        router = json.loads(self.model.read_text(encoding="utf-8"))["router"]
        refs = np.array(router["reference_points"], dtype=float)
        labels = np.array([TAGS.index(t) for t in router["labels"]])
        means = np.array(router["scaler"]["means"], dtype=float)
        stds = np.array(router["scaler"]["stddevs"], dtype=float)
        n_query = self.queries.n_rows
        rows = np.unique(np.linspace(0, n_query - 1, min(ORACLE_SAMPLE, n_query)).astype(int))
        Z = (self.queries.features[rows] - means) / stds
        self.expected = {int(i): TAGS[knn_vote(refs, labels, int(router["k"]), z)]
                         for i, z in zip(rows, Z)}
        data = self.model.read_bytes()
        self.model_digest, self.model_bytes = hashlib.sha256(data).hexdigest(), len(data)

    def commands(self):
        common = ["--model", str(self.model), "--data", str(self.queries_csv), "--target", "y"]
        return [
            ("score_s", ["score", *common, "--trace", "--out", str(self.predictions)],
             [self.predictions]),
            ("diagnose_s", ["diagnose", *common, "--out", str(self.report)], [self.report]),
        ]

    def check(self, out: Outcome) -> None:
        n_query = self.queries.n_rows
        with self.predictions.open(newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        if header != ["row", "segment", "prediction", "nearest_distance"]:
            out.failures.append(f"predictions header is {header}")
        if len(rows) != n_query:
            out.failures.append(f"{len(rows)} prediction rows for {n_query} queries")
            return
        wrong = [i for i, tag in self.expected.items() if rows[i][1] != tag]
        if wrong:
            out.failures.append(f"{len(wrong)}/{len(self.expected)} sampled queries routed "
                                f"differently from the exhaustive vote (first row {wrong[0] + 1})")
        report = json.loads(self.report.read_text(encoding="utf-8"))
        confusion = np.array(report["confusion"]["true_by_routed"])
        if report["n_rows"] != n_query or int(confusion.sum()) != n_query:
            out.failures.append(f"confusion sums to {int(confusion.sum())}, not {n_query}")
        routed = [sum(r[1] == tag for r in rows) for tag in TAGS]
        if confusion.sum(axis=0).tolist() != routed:
            out.failures.append("confusion columns disagree with the predictions' segments")
        self._record(out, self.model_digest, self.model_bytes,
                     float(report["overall"]["dafr"]["mape"]))

    def probe(self):
        return pipeline.load_model(self.model).router, self.queries.features[:ROUTE_PROBES]


class IngestLarge(Workload):
    """load_csv -> dafr_train -> save_model -> load_model on hetero_tails data."""

    name = "ingest_large"
    quality = "segment_mape_in_sample"

    def __init__(self, sizes, seed, work):
        super().__init__(sizes, seed, work)
        self.data = work / "data.csv"

    def setup(self) -> None:
        self.ds = synth.generate(synth.SynthConfig(
            kind="hetero_tails", n=self.sizes["n"], p=self.sizes["p"], seed=self.seed))
        dataset.write_csv(self.ds, self.data)

    def prepare(self) -> None:
        self.digests = (ingest_child.digest(self.ds.features), ingest_child.digest(self.ds.target))

    def operation(self, child=None, scope=nullcontext) -> Outcome:
        out = Outcome()
        self.model.unlink(missing_ok=True)
        if child is not None:
            res = child(["ingest", str(self.data), str(self.model)], self.work)
            out.peak_rss_mb = res.peak_rss_mb
            if res.returncode != 0:
                out.failures.append(f"exit code {res.returncode}: {res.stderr.strip()[-300:]}")
                return out
            try:
                facts = json.loads(res.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                out.failures.append(f"no result line from the child: {res.stdout[-300:]!r}")
                return out
            out.times["ingest_s"] = facts["ingest_s"]
        else:
            start = perf_counter()
            with scope():
                ds, model, reloaded = ingest_child.ingest(self.data, self.model)
            out.times["ingest_s"] = perf_counter() - start
            facts = ingest_child.verify(ds, model, reloaded, self.model)
        if (facts["x_digest"], facts["y_digest"]) != self.digests:
            out.failures.append("load_csv did not return the generated matrix")
        if not facts["reload_exact"]:
            out.failures.append("reloaded model does not predict bit-exactly")
        self._record(out, facts["model_digest"], facts["model_bytes"], facts["mape"])
        return out


WORKLOADS = {cls.name: cls for cls in (TrainRouted, ScoreWide, IngestLarge)}
