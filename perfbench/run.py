#!/usr/bin/env python3
"""dafr benchmark: three batch workloads timed end to end, and a traced run
that splits their time over dafr's layers.

    python3 perfbench/run.py --workload train_routed --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload score_wide --seed 1 --seconds 35 --trace 1
    python3 perfbench/run.py --smoke

Run it from anywhere; it imports dafr from the ``src`` directory next to
``perfbench`` and writes only under ``perfbench/_work`` (removed at exit)
and ``perfbench/out``. Each workload runs closed-loop with one client: the
next operation starts when the previous one has finished, and at most one
child process runs at a time. The last line of standard output is the
result as one JSON object. perfbench/README.md says why each workload exists
and which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# One BLAS thread in this process and, through the environment, in every
# child: on a machine of two shared cores OpenBLAS's own worker threads spin
# against other load and made the untraced times swing from run to run.
# Set before numpy is first imported, since OpenBLAS reads it at load time.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = BENCH / "_work"
OUT = BENCH / "out"

# set-up repeats: at least SETUPS, more while under SETUP_SECONDS (cheap set-ups)
SETUPS = 3
SETUPS_MAX = 15
SETUP_SECONDS = 3.0
IMPORT_REPEATS = 5
CHILD_TIMEOUT_S = 150
# Nominal time of Calibration(), about its time on the 2-CPU Intel Xeon VM
# the first trajectory point was recorded on: op_ref_s is an operation's
# wall clock on a machine that runs the calibration in exactly this time.
CAL_REF_S = 0.33

# name -> unit; the untraced run reports exactly these
END_TO_END = {
    "setup_s": "s",
    "op_ref_s": "s",
    "peak_rss_mb": "MB",
    "model_mb": "MB",
}
# name -> unit; the traced run reports exactly these. Layer times that read
# 0 on a workload which never calls the layer (route_many, dafr_score,
# diagnose, load_model, cli self time, load_feature_csv, single-row routing)
# are printed in the traced table but left out here: they are covered by
# simfn.self_s and pipeline.self_s, which every workload exercises.
PER_LAYER = {
    "cli.import_s": "s",
    "dataset.load_csv_s": "s",
    "dataset.write_csv_s": "s",
    "dataset.cells_parsed": "count",
    "fitfn.ols_fit_s": "s",
    "fitfn.calls": "count",
    "metrics.profile_s": "s",
    "metrics.calls": "count",
    "simfn.knn_fit_s": "s",
    "simfn.self_s": "s",
    "simfn.queries": "count",
    "simfn.n_ref": "count",
    "simfn.distance_evals": "count",
    "simfn.route_accuracy": "ratio",
    "pipeline.dafr_train_s": "s",
    "pipeline.save_model_s": "s",
    "pipeline.self_s": "s",
    "pipeline.model_bytes": "bytes",
    "synth.generate_s": "s",
    "trace.overhead_s": "s",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class ChildResult:
    returncode: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def run_child(args: list[str], cwd: Path) -> ChildResult:
    """Run ``perfbench/child.py ARGS`` to completion; the child writes its own
    peak RSS (0 if it wrote none)."""
    out_path, err_path = cwd / "child.stdout", cwd / "child.stderr"
    rss_path = cwd / "child.rss"
    rss_path.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH / "child.py"), str(rss_path), *args]
    with out_path.open("wb") as out, err_path.open("wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
    peak_kib = int(rss_path.read_text()) if rss_path.is_file() else 0
    return ChildResult(proc.returncode, wall, peak_kib / 1024.0,
                       out_path.read_text(errors="replace"),
                       err_path.read_text(errors="replace"))


def import_seconds(repeats: int, work: Path) -> float:
    """Median fresh ``import dafr.cli`` minus median bare interpreter start."""
    def wall(code: str) -> float:
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=work, env=child_env(), check=True,
                       stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
        return perf_counter() - start

    bare, full = [], []
    for _ in range(repeats):
        bare.append(wall("pass"))
        full.append(wall("import dafr.cli"))
    return statistics.median(full) - statistics.median(bare)


def environment() -> dict:
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_thread_env": {v: os.environ.get(v) for v in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class Calibration:
    """A fixed piece of work of the kinds dafr does, about 0.3 s: float text
    through JSON and CSV both ways, and for as long again a per-row numpy
    distance loop.

    On a shared host the same operation ran up to 1.7 times slower from one
    minute to the next, in CPU time as much as in wall time: other tenants'
    load slows the processor itself, which no scheduling choice here avoids.
    Timing this work around every operation measures that speed, so the
    untraced run can report each operation at the reference speed as well
    (``op_ref_s``). The work never changes, so a change to dafr moves
    ``op_ref_s`` by the same share as it moves the wall clock.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.values = rng.standard_normal(40_000).tolist()
        self.refs = rng.standard_normal((20_000, 8))
        self.queries = rng.standard_normal((120, 8))

    def __call__(self) -> float:
        start = perf_counter()
        json.loads(json.dumps(self.values))
        text = "\n".join(",".join(map(repr, self.values[i:i + 8]))
                         for i in range(0, len(self.values), 8))
        np.array([[float(x) for x in line.split(",")] for line in text.splitlines()])
        for q in self.queries:
            np.argsort(np.sum((self.refs - q) ** 2, axis=1))[:5]
        return perf_counter() - start


def spread(values: list[float]) -> str:
    """Median, quartiles and the highest percentile with 10 samples beyond it."""
    n = len(values)
    text = f"median {statistics.median(values):.6g}"
    if n >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        text += f", q1 {q1:.6g}, q3 {q3:.6g}"
    tail = [q for q in (99.9, 99.0, 90.0, 50.0) if n * (1 - q / 100) >= 10]
    if tail and tail[0] > 50.0:
        text += f", p{tail[0]:g} {float(np.percentile(values, tail[0])):.6g}"
    return text + f" (n={n})"


def untraced(workload, seconds: float, setups: int, setup_seconds: float) -> dict:
    setup_times = []
    while len(setup_times) < setups or (
            sum(setup_times) < setup_seconds and len(setup_times) < SETUPS_MAX):
        start = perf_counter()
        workload.setup()
        setup_times.append(perf_counter() - start)
    workload.prepare()
    calibrate = Calibration()
    calibrate()  # warm-up
    before = calibrate()
    outcomes, cal = [], []
    start = perf_counter()
    while not outcomes or perf_counter() - start < seconds:
        outcome = workload.operation(child=run_child)
        if not outcome.failures and not outcome.peak_rss_mb:
            outcome.failures.append("no child reported its peak RSS")
        outcomes.append(outcome)
        after = calibrate()
        cal.append((before + after) / 2)  # the two timings that bracket the operation
        before = after
    good = [o for o in outcomes if not o.failures]
    good_cal = [c for o, c in zip(outcomes, cal) if not o.failures]
    for failure in (f for o in outcomes for f in o.failures):
        print(f"  FAILED: {failure}")
    failed = len(outcomes) - len(good)
    samples = {"setup_s": setup_times}
    if good:
        samples.update({label: [o.times[label] for o in good] for label in good[0].times})
        samples.update({
            "op_s": [o.op_s for o in good],
            "cal_s": good_cal,
            "op_ref_s": [o.op_s * CAL_REF_S / c for o, c in zip(good, good_cal)],
            "peak_rss_mb": [o.peak_rss_mb for o in good],
            "model_mb": [o.model_bytes / 1e6 for o in good],
            workload.quality: [o.mape for o in good],
        })
    units = {"peak_rss_mb": "MB", "model_mb": "MB", workload.quality: "%"}
    for name, values in samples.items():
        print(f"  {name:22} {spread(values)} {units.get(name, 's')}")
    print(f"  {'error_rate':22} {failed}/{len(outcomes)} = {failed / len(outcomes):.4g}"
          f" (failed / attempted operations)")
    metrics = {name: statistics.median(samples[name]) for name in END_TO_END} if good else None
    return {"outcomes": outcomes, "metrics": metrics, "samples": samples}


def layer_metrics(spans_: list[dict], import_s: float, overhead_s: float) -> dict:
    """Per-layer metrics from the set-up and operation spans of a traced run;
    single-row routing latency comes from the separate probe spans."""
    from spans import by_name

    table = by_name(spans_, {"setup", "op"})
    route_ms = [1e3 * (s["end"] - s["start"]) for s in spans_ if s["run"] == "probe"]

    def self_s(name):
        return table.get(name, {}).get("self_s", 0.0)

    def layer(prefix, key):
        return sum(r.get(key, 0) for n, r in table.items() if n.startswith(prefix))

    diag = table.get("pipeline.diagnose")
    return {
        "cli.import_s": import_s,
        "cli.self_s": self_s("cli.main"),
        "dataset.load_csv_s": self_s("dataset.load_csv"),
        "dataset.load_feature_csv_s": self_s("dataset.load_feature_csv"),
        "dataset.write_csv_s": self_s("dataset.write_csv"),
        "dataset.cells_parsed": layer("dataset.", "cells"),
        "fitfn.ols_fit_s": self_s("fitfn.ols_fit"),
        "fitfn.calls": layer("fitfn.", "calls"),
        "metrics.profile_s": self_s("metrics.decile_mape_profile"),
        "metrics.calls": layer("metrics.", "calls"),
        "simfn.knn_fit_s": self_s("simfn.knn_fit"),
        "simfn.route_many_s": self_s("simfn.route_many"),
        "simfn.self_s": layer("simfn.", "self_s"),
        "simfn.queries": layer("simfn.", "queries"),
        "simfn.n_ref": max((r.get("n_ref", 0) for n, r in table.items()
                            if n.startswith("simfn.")), default=0),
        "simfn.distance_evals": layer("simfn.", "distance_evals"),
        "simfn.route_one_ms_p50": float(np.percentile(route_ms, 50)) if route_ms else 0.0,
        "simfn.route_one_ms_p99": float(np.percentile(route_ms, 99)) if route_ms else 0.0,
        "simfn.route_one_calls": len(route_ms),
        "simfn.route_accuracy": diag["correct_routes"] / diag["rows"] if diag else 0.0,
        "simfn.routed_rows": diag["rows"] if diag else 0,
        "pipeline.dafr_train_s": self_s("pipeline.dafr_train"),
        "pipeline.dafr_score_s": self_s("pipeline.dafr_score"),
        "pipeline.diagnose_s": self_s("pipeline.diagnose"),
        "pipeline.save_model_s": self_s("pipeline.save_model"),
        "pipeline.load_model_s": self_s("pipeline.load_model"),
        "pipeline.self_s": layer("pipeline.", "self_s"),
        "pipeline.model_bytes": table.get("pipeline.save_model", {}).get("bytes", 0),
        "synth.generate_s": self_s("synth.generate"),
        "trace.overhead_s": overhead_s,
    }


def print_trace(spans_: list[dict], plain, traced_op, values: dict) -> None:
    from spans import by_name

    def times(outcome):
        return ", ".join(f"{k} {v:.4f} s" for k, v in outcome.times.items())

    print(f"  untraced in-process: {times(plain)}")
    print(f"  traced in-process:   {times(traced_op)} "
          f"(trace.overhead_s {values['trace.overhead_s']:+.4f})")
    op, setup = by_name(spans_, {"op"}), by_name(spans_, {"setup"})
    base = traced_op.op_s
    print(f"  {'span':30} {'op calls':>8} {'op self s':>10} {'% of op':>8} {'set-up self s':>14}")
    for name in sorted(op.keys() | setup.keys(),
                       key=lambda n: (-op.get(n, {}).get("self_s", 0.0), n)):
        o = op.get(name, {"calls": 0, "self_s": 0.0})
        print(f"  {name:30} {o['calls']:8d} {o['self_s']:10.4f} {100 * o['self_s'] / base:7.1f}%"
              f" {setup.get(name, {}).get('self_s', 0.0):14.4f}")
    print(f"  (% of op has the traced operation's wall clock, {base:.4f} s, as base;"
          f" {sum(s['run'] == 'op' for s in spans_)} spans recorded in it)")
    if values["simfn.routed_rows"]:
        print(f"  simfn.route_accuracy {values['simfn.route_accuracy']:.4f} = confusion diagonal"
              f" / {values['simfn.routed_rows']} diagnosed rows")
    print(f"  simfn.distance_evals {values['simfn.distance_evals']} = queries x n_ref,"
          f" computed at the route_many boundary")
    if values["simfn.route_one_calls"]:
        print(f"  single-row route: {values['simfn.route_one_calls']} calls,"
              f" p50 {values['simfn.route_one_ms_p50']:.4f} ms,"
              f" p99 {values['simfn.route_one_ms_p99']:.4f} ms")
    for name, value in values.items():
        print(f"  {name:28} {value:.6g}{'' if name in PER_LAYER else '  (printed only)'}")


def traced(workload, import_repeats: int, work: Path) -> dict:
    from spans import Tracer

    tracer = Tracer()
    import_s = import_seconds(import_repeats, work)
    with tracer.tracing("setup"):
        workload.setup()
    workload.prepare()
    plain = workload.operation()
    traced_op = workload.operation(scope=lambda: tracer.tracing("op"))
    probe = workload.probe()
    if probe is not None:
        router, rows = probe
        with tracer.tracing("probe"):
            for x in rows:
                router.route(x)
    values = layer_metrics(tracer.spans, import_s, traced_op.op_s - plain.op_s)
    print_trace(tracer.spans, plain, traced_op, values)
    return {"outcomes": [plain, traced_op], "metrics": values, "tracer": tracer}


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    import workloads

    sizes = (workloads.SMOKE_SIZES if smoke else workloads.SIZES)[name]
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    load_before = os.getloadavg()[0]
    print(f"{name}: seed {seed}, sizes {sizes}, {'traced' if trace else f'{seconds:g} s untraced'}")
    try:
        workload = workloads.WORKLOADS[name](sizes, seed, work)
        if trace:
            res = traced(workload, 1 if smoke else IMPORT_REPEATS, work)
        else:
            res = (untraced(workload, seconds, 1, 0.0) if smoke
                   else untraced(workload, seconds, SETUPS, SETUP_SECONDS))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    res["loadavg_1m"] = [load_before, os.getloadavg()[0]]
    print(f"  load average (1 min) before {load_before:.2f}, after {res['loadavg_1m'][1]:.2f}")
    return res


def result_line(res: dict, units: dict) -> dict:
    failed = sum(bool(o.failures) for o in res["outcomes"])
    return {
        "correct": failed == 0,
        "attempted": len(res["outcomes"]),
        "failed": failed,
        "metrics": {k: {"value": res["metrics"][k], "unit": u} for k, u in units.items()},
    }


def save(name: str, seed: int, trace: bool, env: dict, res: dict, line: dict) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    stem = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    doc = {"workload": name, "seed": seed, "env": env, "loadavg_1m": res["loadavg_1m"],
           "samples": res.get("samples"), "all_metrics": res["metrics"], "result": line,
           "failures": [f for o in res["outcomes"] for f in o.failures]}
    if trace:
        res["tracer"].write(stem.with_suffix(".spans.json"))
    stem.with_suffix(".json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def smoke() -> int:
    """Every workload at a tiny size, untraced and traced, all checks on."""
    import workloads

    attempted = failed = 0
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            res = measure(name, 0, 0.0, trace, smoke=True)
            attempted += len(res["outcomes"])
            failed += sum(bool(o.failures) for o in res["outcomes"])
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": {}}))
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["train_routed", "score_wide", "ingest_large"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at a tiny size, with all checks")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (SRC / "dafr" / "__init__.py").is_file():
        print(f"perfbench: no dafr sources at {SRC / 'dafr'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.smoke:
        return smoke()

    env = environment()
    print("env " + json.dumps(env))
    trace = bool(args.trace)
    res = measure(args.workload, args.seed, args.seconds, trace, smoke=False)
    if res["metrics"] is None:
        print("perfbench: every operation failed; no result", file=sys.stderr)
        return 1
    line = result_line(res, PER_LAYER if trace else END_TO_END)
    save(args.workload, args.seed, trace, env, res, line)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
