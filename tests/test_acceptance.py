"""Go/no-go acceptance battery for the whole toolkit.

Nine checks with fixed thresholds. Each test prints exactly one
``[N] ... PASS/FAIL`` line (bypassing pytest capture) so a harness can
grep outcomes, then asserts the same conditions.
"""

import json
import os
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dafr.cli import main
from dafr.experiments import bathtub_runs, compare_run, robustness_runs
from dafr.fitfn import ols_fit
from dafr.metrics import decile_mape_profile, quantile
from dafr.pipeline import dafr_score, dafr_train, load_model, model_to_json, save_model
from dafr.simfn import knn_fit
from dafr.synth import SynthConfig, generate

SSE_TOL = 1e-9
SEEDS = range(20)


@pytest.fixture
def announce(capfd):
    def emit(line: str) -> None:
        with capfd.disabled():
            print(line, flush=True)
    return emit


@pytest.fixture(scope="module")
def bathtub_battery():
    start = time.perf_counter()
    runs = bathtub_runs(SEEDS, SynthConfig(kind="hetero_tails", n=2000))
    return runs, time.perf_counter() - start


@pytest.fixture(scope="module")
def improvement_battery():
    start = time.perf_counter()
    config = SynthConfig(kind="piecewise_three", n=2000)
    runs = [compare_run(generate(replace(config, seed=seed)), seed, test_fraction=0.2)
            for seed in SEEDS]
    return runs, time.perf_counter() - start


def test_01_bathtub_shape_under_single_fit(bathtub_battery, announce):
    runs, elapsed = bathtub_battery
    hits = sum(r.bathtub.is_bathtub for r in runs)
    ok = hits >= 18 and elapsed < 10.0
    announce(f"[1] bathtub decile profile under a single fit: "
             f"{'PASS' if ok else 'FAIL'} ({hits}/20 seeds, {elapsed:.2f}s < 10s)")
    assert hits >= 18
    assert elapsed < 10.0


def test_02_held_out_improvement_over_baseline(improvement_battery, announce):
    runs, elapsed = improvement_battery
    wins = sum(r.improved for r in runs)
    front_base = float(np.mean([r.baseline.bathtub.front_mean for r in runs]))
    front_dafr = float(np.mean([r.dafr.bathtub.front_mean for r in runs]))
    back_base = float(np.mean([r.baseline.bathtub.back_mean for r in runs]))
    back_dafr = float(np.mean([r.dafr.bathtub.back_mean for r in runs]))
    ok = (wins >= 18 and front_dafr < front_base and back_dafr < back_base
          and elapsed < 30.0)
    announce(f"[2] held-out MAPE improvement on piecewise data: "
             f"{'PASS' if ok else 'FAIL'} ({wins}/20 wins, "
             f"front {front_base:.2f}->{front_dafr:.2f}, "
             f"back {back_base:.2f}->{back_dafr:.2f}, {elapsed:.2f}s < 30s)")
    assert wins >= 18
    assert front_dafr < front_base
    assert back_dafr < back_base
    assert elapsed < 30.0


def test_03_segment_sse_never_worse_than_baseline(bathtub_battery,
                                                  improvement_battery, announce):
    runs = list(bathtub_battery[0]) + list(improvement_battery[0])
    worst = max(r.sse_margin for r in runs)
    violations = sum(r.sse_margin > SSE_TOL for r in runs)
    ok = violations == 0
    announce(f"[3] per-segment training SSE dominance: "
             f"{'PASS' if ok else 'FAIL'} ({violations} violations in "
             f"{len(runs)} runs, worst margin {worst:.2e} <= {SSE_TOL:.0e})")
    assert violations == 0


def _normal_equations(X, y):
    A = np.hstack([np.ones((X.shape[0], 1)), X])
    return np.linalg.solve(A.T @ A, A.T @ y)


def test_04_solver_agrees_with_normal_equations(announce):
    rng = np.random.default_rng(2024)
    worst_rel = 0.0
    worst_orth = 0.0
    for _ in range(100):
        n = int(rng.integers(20, 201))
        p = int(rng.integers(1, 11))
        X = rng.normal(size=(n, p)) * rng.uniform(0.5, 4.0, size=p)
        y = rng.uniform(-5, 5) + X @ (rng.normal(size=p) * 3.0) + rng.normal(size=n)
        model = ols_fit(X, y)
        solved = np.concatenate([[model.intercept], model.coefficients])
        reference = _normal_equations(X, y)
        rel = float(np.linalg.norm(solved - reference)
                    / max(1.0, np.linalg.norm(reference)))
        A = np.hstack([np.ones((n, 1)), X])
        residual = y - model.predict(X)
        orth = float(np.abs(A.T @ residual).max()
                     / (1.0 + np.abs(A.T @ y).max()))
        worst_rel = max(worst_rel, rel)
        worst_orth = max(worst_orth, orth)
    ok = worst_rel <= 1e-8 and worst_orth <= 1e-8
    announce(f"[4] least-squares vs normal-equations oracle, 100 problems: "
             f"{'PASS' if ok else 'FAIL'} (worst rel {worst_rel:.2e}, "
             f"worst orthogonality {worst_orth:.2e}, both <= 1e-08)")
    assert worst_rel <= 1e-8
    assert worst_orth <= 1e-8


def _exhaustive_route(refs, labels, k, z):
    m = refs.shape[0]
    d2 = [float(np.sum((refs[i] - z) ** 2)) for i in range(m)]
    nearest = sorted(range(m), key=lambda i: (d2[i], i))[:k]
    votes = Counter(int(labels[i]) for i in nearest)
    top = max(votes.values())
    tied = {label for label, count in votes.items() if count == top}
    if len(tied) > 1:
        for i in nearest:
            if int(labels[i]) in tied:
                return int(labels[i])
        return min(tied)
    return tied.pop()


def test_05_router_agrees_with_exhaustive_oracle(announce):
    rng = np.random.default_rng(7)
    mismatches = 0
    total = 0
    for k in (1, 3, 5, 7, 20):
        refs = rng.normal(size=(200, 4))
        labels = rng.integers(0, 3, size=200)
        router = knn_fit(refs, labels, k=k)
        queries = rng.normal(size=(200, 4)) * rng.uniform(0.5, 2.0)
        routed = router.route_many(queries)[0]
        standardized = router.scaler.transform(queries)
        expected = [_exhaustive_route(router.reference_points, labels, k, z)
                    for z in standardized]
        mismatches += int(np.sum(routed != np.array(expected)))
        total += queries.shape[0]
    ok = mismatches == 0 and total == 1000
    announce(f"[5] router vs exhaustive-sort oracle, {total} queries: "
             f"{'PASS' if ok else 'FAIL'} ({mismatches} mismatches)")
    assert total == 1000
    assert mismatches == 0


def test_06_metric_identities(announce):
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(10, 200))
        y = rng.uniform(1.0, 100.0, size=n)
        yhat = y * rng.uniform(0.7, 1.3, size=n)
        profile = decile_mape_profile(y, yhat)
        weighted = float(np.sum(profile.counts * profile.bin_mapes)
                         / profile.counts.sum())
        worst = max(worst, abs(weighted - profile.overall_mape)
                    / profile.overall_mape)
    identity_ok = worst <= 1e-10

    endpoints_ok = True
    monotone_ok = True
    for _ in range(20):
        v = rng.uniform(-50.0, 50.0, size=int(rng.integers(1, 60)))
        endpoints_ok &= quantile(v, 0.0) == v.min()
        endpoints_ok &= quantile(v, 1.0) == v.max()
        values = [quantile(v, q) for q in np.linspace(0.0, 1.0, 41)]
        monotone_ok &= all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    y25 = np.arange(1.0, 26.0)
    counts = decile_mape_profile(y25, y25 + 0.1).counts.tolist()
    pattern_ok = counts == [2, 3, 2, 3, 2, 3, 2, 3, 2, 3]

    ok = identity_ok and endpoints_ok and monotone_ok and pattern_ok
    announce(f"[6] metric identities: {'PASS' if ok else 'FAIL'} "
             f"(partition worst {worst:.2e} <= 1e-10, quantile endpoints "
             f"{'ok' if endpoints_ok else 'BAD'}, monotone "
             f"{'ok' if monotone_ok else 'BAD'}, n=25 pattern "
             f"{'ok' if pattern_ok else 'BAD'})")
    assert identity_ok and endpoints_ok and monotone_ok and pattern_ok


def test_07_mid_noise_moves_error_less_than_tail_outliers(announce):
    start = time.perf_counter()
    runs = robustness_runs(SEEDS, SynthConfig(kind="hetero_tails", n=2000))
    elapsed = time.perf_counter() - start
    stable = sum(r.stable for r in runs)
    ok = stable >= 15
    announce(f"[7] mid-noise vs tail-outlier sensitivity: "
             f"{'PASS' if ok else 'FAIL'} ({stable}/20 seeds stable, "
             f"{elapsed:.2f}s)")
    for r in runs:
        announce(f"    seed {r.seed:2d}: clean {r.clean_mape:7.3f}  "
                 f"tail_change {r.tail_change:6.3f}  "
                 f"mid_change {r.mid_change:6.3f}  "
                 f"{'stable' if r.stable else 'UNSTABLE'}")
    assert stable >= 15


def test_08_deterministic_retrain_and_bitexact_roundtrip(tmp_path, announce):
    ds = generate(SynthConfig(kind="piecewise_three", n=1500, seed=4))
    first = json.dumps(model_to_json(dafr_train(ds)), indent=2)
    second = json.dumps(model_to_json(dafr_train(ds)), indent=2)
    retrain_ok = first == second

    model = dafr_train(ds)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    rng = np.random.default_rng(99)
    queries = rng.uniform(0.0, 3.0, size=(1000, ds.n_features))
    a = dafr_score(model, queries)
    b = dafr_score(loaded, queries)
    roundtrip_ok = (np.array_equal(a.predictions, b.predictions)
                    and np.array_equal(a.segments, b.segments)
                    and np.array_equal(a.nearest_distance, b.nearest_distance))
    ok = retrain_ok and roundtrip_ok
    announce(f"[8] byte-identical retrain and bit-exact save/load: "
             f"{'PASS' if ok else 'FAIL'} (retrain "
             f"{'ok' if retrain_ok else 'BAD'}, 1000-query roundtrip "
             f"{'ok' if roundtrip_ok else 'BAD'})")
    assert retrain_ok
    assert roundtrip_ok


HOUSING_COLUMNS = ("crim", "zn", "indus", "chas", "nox", "rm", "age",
                   "dis", "rad", "tax", "ptratio", "b", "lstat")


def _housing_style_csv(path: Path) -> None:
    """506x14 stand-in with the usual housing schema, used when no real
    CSV is supplied via DAFR_HOUSING_CSV."""
    rng = np.random.default_rng(506)
    n = 506
    cols = {
        "crim": rng.lognormal(0.0, 1.5, n),
        "zn": rng.choice([0.0, 12.5, 25.0, 80.0], n),
        "indus": rng.uniform(0.5, 27.0, n),
        "chas": rng.integers(0, 2, n).astype(float),
        "nox": rng.uniform(0.38, 0.87, n),
        "rm": rng.normal(6.3, 0.7, n),
        "age": rng.uniform(2.0, 100.0, n),
        "dis": rng.uniform(1.1, 12.0, n),
        "rad": rng.integers(1, 25, n).astype(float),
        "tax": rng.integers(187, 712, n).astype(float),
        "ptratio": rng.uniform(12.6, 22.0, n),
        "b": rng.uniform(0.3, 397.0, n),
        "lstat": rng.uniform(1.7, 38.0, n),
    }
    medv = (22.0 + 6.0 * (cols["rm"] - 6.3) - 0.5 * (cols["lstat"] - 12.0)
            - 8.0 * (cols["nox"] - 0.55) + rng.normal(0.0, 2.5, n))
    medv += max(0.0, 1.0 - medv.min())
    header = ",".join(HOUSING_COLUMNS + ("medv",))
    lines = [header]
    for i in range(n):
        row = [repr(float(cols[c][i])) for c in HOUSING_COLUMNS]
        row.append(repr(float(medv[i])))
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_09_housing_style_pipeline(tmp_path, monkeypatch, announce):
    supplied = os.environ.get("DAFR_HOUSING_CSV")
    if supplied:
        data = Path(supplied).resolve()
        source = "user-supplied"
    else:
        data = tmp_path / "housing.csv"
        _housing_style_csv(data)
        source = "synthetic stand-in"
    monkeypatch.chdir(tmp_path)

    start = time.perf_counter()
    rc_train = main(["train", "--data", str(data), "--target", "medv",
                     "--out", "housing_model.json"])
    rc_diag = main(["diagnose", "--model", "housing_model.json",
                    "--data", str(data), "--target", "medv",
                    "--out", "housing_report.json"])
    elapsed = time.perf_counter() - start

    before = tmp_path / "housing_model.profile_before.csv"
    after = tmp_path / "housing_model.profile_after.csv"
    profiles_ok = before.exists() and after.exists()

    identity_ok = False
    if rc_diag == 0:
        report = json.loads((tmp_path / "housing_report.json").read_text())
        identity_ok = True
        for side in ("baseline", "dafr"):
            bins = report["profiles"][side]
            weighted = (sum(b["count"] * b["mape"] for b in bins)
                        / sum(b["count"] for b in bins))
            overall = report["overall"][side]["mape"]
            identity_ok &= abs(weighted - overall) <= 1e-10 * abs(overall)

    ok = (rc_train == 0 and rc_diag == 0 and elapsed < 5.0
          and profiles_ok and identity_ok)
    announce(f"[9] housing-style 506x14 train+diagnose ({source}): "
             f"{'PASS' if ok else 'FAIL'} (exit {rc_train}/{rc_diag}, "
             f"{elapsed:.2f}s < 5s, profiles "
             f"{'ok' if profiles_ok else 'MISSING'}, partition identity "
             f"{'ok' if identity_ok else 'BAD'})")
    assert rc_train == 0 and rc_diag == 0
    assert elapsed < 5.0
    assert profiles_ok
    assert identity_ok
