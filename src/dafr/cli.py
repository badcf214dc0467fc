"""Command-line interface: train, score, diagnose, synth, compare.

Every run resolves its options against builtin defaults (and optionally a
saved config file), then writes the effective config next to its outputs,
so any run can be reproduced byte-for-byte with ``--config``. Errors print
one ``code: message`` line on stderr; exit codes are 0 (success),
2 (usage or input validation), 3 (pipeline failure).
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .dataset import load_csv, load_feature_csv, train_test_split, write_csv
from .errors import DafrError, InputError
from .metrics import write_profile_csv
from .pipeline import SegmentSpec, dafr_score, dafr_train, diagnose, load_model, save_model
from .simfn import SegmentLabel
from .synth import KINDS, SynthConfig, generate

log = logging.getLogger("dafr")

# training rows the summary routes leave-one-out; each costs one scan of
# the references, so the summary is O(SUMMARY_ROWS * n * p), not O(n^2 * p)
SUMMARY_ROWS = 2000

# command -> option -> builtin default; key order is the --help flag order
DEFAULTS = {
    "train": {
        "data": None, "target": None, "features": None,
        "q_front": 0.3, "q_back": 0.7, "k": 5, "ridge": 0.0,
        "test_fraction": None, "seed": 0, "bins": 10, "out": "model.json",
    },
    "score": {
        "model": None, "data": None, "target": None, "features": None,
        "out": None, "trace": False,
    },
    "diagnose": {
        "model": None, "data": None, "target": None, "features": None,
        "bins": 10, "out": None,
    },
    "synth": {
        "kind": "single_line", "n": 2000, "p": 3, "sigma": 1.0,
        "seed": 0, "out": None,
    },
    "compare": {
        "data": None, "target": None, "features": None,
        "synth_kind": "piecewise_three", "n": 2000, "p": 3, "sigma": 1.0,
        "seeds": ",".join(str(s) for s in range(20)),
        "q_front": 0.3, "q_back": 0.7, "k": 5, "ridge": 0.0,
        "test_fraction": 0.2, "bins": 10, "out": "compare.csv",
    },
}

# flag name -> (type, help); bool flags get --name/--no-name
OPTIONS = {
    "data": (str, "input CSV with a header row"),
    "model": (str, "trained model JSON"),
    "target": (str, "target column name"),
    "features": (str, "comma-separated feature columns (default: all numeric non-target)"),
    "q_front": (float, "front segment quantile"),
    "q_back": (float, "back segment quantile"),
    "k": (int, "router neighbor count"),
    "ridge": (float, "ridge penalty on coefficients"),
    "test_fraction": (float, "held-out fraction of rows"),
    "seed": (int, "random seed"),
    "bins": (int, "profile bin count"),
    "out": (str, "output path"),
    "trace": (bool, "add nearest-neighbor distance column"),
    "kind": (str, f"generator kind: {', '.join(KINDS)}"),
    "synth_kind": (str, f"generator kind: {', '.join(KINDS)}"),
    "n": (int, "rows to generate"),
    "p": (int, "feature columns to generate"),
    "sigma": (float, "noise standard deviation"),
    "seeds": (str, "comma-separated seed list"),
}

_COUNT = (lambda v: v >= 1, "at least 1")
_FRACTION = (lambda v: 0 < v < 1, "in (0, 1)")
# option -> (valid-value test, valid range); NaN fails each. The pipeline
# checks what depends on the data: k <= rows, q_front < q_back.
RANGES = {
    "k": _COUNT, "bins": _COUNT,
    "q_front": _FRACTION, "q_back": _FRACTION, "test_fraction": _FRACTION,
    "ridge": (lambda v: 0 <= v < float("inf"), "finite and at least 0"),
    "seed": (lambda v: v >= 0, "at least 0"),
}

COMMAND_HELP = {
    "train": "fit baseline, segment models, and router",
    "score": "predict with a trained model",
    "diagnose": "baseline-vs-routed error report",
    "synth": "generate a synthetic dataset CSV",
    "compare": "baseline-vs-routed over many seeds",
}


class UsageError(Exception):
    """Post-parse validation failure; maps to exit code 2."""


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per COMMAND_HELP entry, one flag per DEFAULTS key.

    Flag defaults stay None so the config merge can tell explicit flags
    from unset ones.
    """
    parser = argparse.ArgumentParser(
        prog="dafr",
        description="Segmented regression: per-decile error diagnostics, "
                    "front/mid/back models, KNN routing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, command_help in COMMAND_HELP.items():
        cmd = sub.add_parser(command, help=command_help)
        for name in DEFAULTS[command]:
            typ, help_text = OPTIONS[name]
            kind = ({"action": argparse.BooleanOptionalAction} if typ is bool
                    else {"type": typ})
            cmd.add_argument("--" + name.replace("_", "-"), dest=name, default=None,
                             help=help_text, **kind)
        cmd.add_argument("--config", type=str, default=None,
                         help="load option values from a saved effective-config JSON")
    return parser


def resolve_config(args: argparse.Namespace) -> dict:
    """builtin defaults <- saved --config file <- explicit flags."""
    command = args.command
    cfg = dict(DEFAULTS[command])
    if args.config is not None:
        path = Path(args.config)
        if not path.exists():
            raise InputError(f"no such config file: {path}")
        try:
            saved = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as err:
            raise InputError(f"{path} is not valid JSON: {err}") from None
        if not isinstance(saved, dict):
            raise InputError(f"{path}: expected a JSON object at top level")
        if saved.get("command") != command:
            raise InputError(
                f"{path} was written by {saved.get('command')!r}, not {command!r}"
            )
        for key in (k for k in cfg if saved.get(k) is not None):
            value, typ = saved[key], OPTIONS[key][0]
            # a float option takes an int too; bool is an int only to Python
            if (isinstance(value, bool) != (typ is bool)
                    or not isinstance(value, (int, float) if typ is float else typ)):
                raise InputError(f'{path}: option "{key}" must be {typ.__name__}, '
                                 f"got {json.dumps(value)}")
            cfg[key] = value
    for key in cfg:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    for key, (valid, must) in RANGES.items():
        if cfg.get(key) is not None and not valid(cfg[key]):
            raise UsageError(f'option "{key}" must be {must}, got {cfg[key]}')
    return cfg


def _require(cfg: dict, *keys) -> None:
    missing = [f"--{k.replace('_', '-')}" for k in keys if cfg[k] is None]
    if missing:
        raise UsageError(f"missing required option(s): {', '.join(missing)}")


def _feature_list(cfg: dict) -> list[str] | None:
    if cfg["features"] is None:
        return None
    names = [c.strip() for c in str(cfg["features"]).split(",") if c.strip()]
    if not names:
        raise UsageError("--features must name at least one column")
    return names


def _beside(out: Path, suffix: str) -> Path:
    """``out`` with its extension replaced: model.json -> model<suffix>."""
    return out.parent / (out.with_suffix("").name + suffix)


def write_effective_config(command: str, cfg: dict, out: Path, extra: dict | None = None) -> None:
    doc = {"command": command, **{k: cfg[k] for k in sorted(cfg)}, **(extra or {})}
    _beside(out, ".config.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def train_summary(model, train_ds, n_bins: int, seed: int) -> list[str]:
    """Summary lines for a freshly trained model.

    Baseline and routed figures come from the same rows: all training rows,
    or SUMMARY_ROWS of them drawn with ``seed``. Each row is routed with
    itself left out of the references, so "routed" is not an in-sample
    figure.
    """
    n = train_ds.n_rows
    if n <= SUMMARY_ROWS:
        rows = np.arange(n)
        label = f"leave-one-out on all {n} training rows"
    else:
        rows = np.sort(np.random.default_rng(seed).choice(n, SUMMARY_ROWS, replace=False))
        label = f"leave-one-out on {SUMMARY_ROWS} of {n} training rows (seed {seed})"
    report = diagnose(model, train_ds.take(rows), n_bins,
                      routed=model.router.route_left_out(rows))
    sizes = [int(c) for c in np.bincount(model.router.labels, minlength=3)]
    base, routed = report.baseline, report.dafr
    lines = [
        f"rows: {n}, features: {train_ds.n_features}",
        f"segments: front={sizes[0]}, mid={sizes[1]}, back={sizes[2]} "
        f"(t_front={_fmt(model.spec.t_front)}, t_back={_fmt(model.spec.t_back)})",
        f"routed figures: {label}",
        f"mape: baseline {_fmt(base.mape)}, routed {_fmt(routed.mape)}",
        f"rmse: baseline {_fmt(base.rmse)}, routed {_fmt(routed.rmse)}",
        f"mad: baseline {_fmt(base.mad)}, routed {_fmt(routed.mad)}",
    ]
    for name, tub in (("baseline", base.bathtub), ("routed", routed.bathtub)):
        if tub is None:
            lines.append(f"bathtub {name}: n/a (bins != 10)")
        else:
            lines.append(
                f"bathtub {name}: {'yes' if tub.is_bathtub else 'no'} "
                f"(front {_fmt(tub.front_mean)}, mid {_fmt(tub.mid_mean)}, "
                f"back {_fmt(tub.back_mean)})"
            )
    if routed.mape > base.mape:
        lines.append("routed is worse than baseline on these rows (mape)")
    return lines


def cmd_train(cfg: dict) -> int:
    _require(cfg, "data", "target")
    ds = load_csv(cfg["data"], cfg["target"], _feature_list(cfg))
    out = Path(cfg["out"])
    holdout_path = None
    if cfg["test_fraction"] is not None:
        train_ds, test_ds = train_test_split(ds, cfg["test_fraction"], cfg["seed"])
        holdout_path = _beside(out, ".holdout.csv")
        write_csv(test_ds, holdout_path)
    else:
        train_ds = ds

    spec = SegmentSpec(q_front=cfg["q_front"], q_back=cfg["q_back"])
    model = dafr_train(train_ds, ridge=cfg["ridge"], k=cfg["k"], spec=spec,
                       n_bins=cfg["bins"])
    save_model(model, out)
    stem = Path(cfg["data"]).with_suffix("").name
    before_path = out.parent / f"{stem}.profile_before.csv"
    after_path = out.parent / f"{stem}.profile_after.csv"
    write_profile_csv(model.train_profile_before, before_path)
    write_profile_csv(model.train_profile_after, after_path)

    lines = train_summary(model, train_ds, cfg["bins"], cfg["seed"])
    if holdout_path is not None:
        lines.append(f"holdout rows written to {holdout_path} (not used for training)")
    summary_path = _beside(out, ".summary.txt")
    summary_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    write_effective_config("train", cfg, out)
    log.info("wrote %s, %s, %s, %s", out, before_path, after_path, summary_path)
    return 0


def cmd_score(cfg: dict) -> int:
    _require(cfg, "model", "data")
    model = load_model(cfg["model"])
    exclude = (cfg["target"],) if cfg["target"] else ()
    X, _ = load_feature_csv(cfg["data"], _feature_list(cfg), exclude=exclude)
    result = dafr_score(model, X)
    out = Path(cfg["out"]) if cfg["out"] else Path(
        Path(cfg["data"]).with_suffix("").name + ".predictions.csv")
    header = ["row", "segment", "prediction"]
    if cfg["trace"]:
        header.append("nearest_distance")
    with out.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(result.predictions.shape[0]):
            row = [i + 1, SegmentLabel(int(result.segments[i])).tag,
                   repr(float(result.predictions[i]))]
            if cfg["trace"]:
                row.append(repr(float(result.nearest_distance[i])))
            writer.writerow(row)
    write_effective_config("score", {**cfg, "out": str(out)}, out)
    log.info("wrote %s (%d rows)", out, result.predictions.shape[0])
    return 0


def cmd_diagnose(cfg: dict) -> int:
    _require(cfg, "model", "data", "target")
    model = load_model(cfg["model"])
    ds = load_csv(cfg["data"], cfg["target"], _feature_list(cfg))
    report = diagnose(model, ds, n_bins=cfg["bins"])
    out = Path(cfg["out"]) if cfg["out"] else Path(
        Path(cfg["data"]).with_suffix("").name + ".report.json")
    out.write_text(json.dumps(report.to_json(), indent=2) + "\n", encoding="utf-8")
    pairs_path = _beside(out, ".profiles.csv")
    with pairs_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin", "baseline_mape", "dafr_mape"])
        for b, d in zip(report.baseline.profile.bins, report.dafr.profile.bins):
            writer.writerow([b.bin, repr(b.mape), repr(d.mape)])
    write_effective_config("diagnose", {**cfg, "out": str(out)}, out)
    log.info("wrote %s and %s", out, pairs_path)
    return 0


def cmd_synth(cfg: dict) -> int:
    synth_config = SynthConfig(kind=cfg["kind"], n=cfg["n"], p=cfg["p"],
                               noise_sigma=cfg["sigma"], seed=cfg["seed"])
    ds = generate(synth_config)
    out = Path(cfg["out"]) if cfg["out"] else Path(f"{cfg['kind']}.csv")
    write_csv(ds, out)
    write_effective_config("synth", {**cfg, "out": str(out)}, out,
                           extra={"generator": synth_config.to_json()})
    log.info("wrote %s (%d rows)", out, ds.n_rows)
    return 0


def _parse_seeds(text: str) -> list[int]:
    try:
        seeds = [int(s) for s in str(text).split(",") if s.strip() != ""]
    except ValueError:
        raise UsageError(f"--seeds must be a comma-separated integer list, got {text!r}") from None
    if not seeds:
        raise UsageError("--seeds must name at least one seed")
    return seeds


def cmd_compare(cfg: dict) -> int:
    # only compare needs the experiments module; other commands skip its import
    from .experiments import compare_run, summarize_compare

    seeds = _parse_seeds(cfg["seeds"])
    spec = SegmentSpec(q_front=cfg["q_front"], q_back=cfg["q_back"])
    if cfg["data"] is not None:
        _require(cfg, "target")
        base_ds = load_csv(cfg["data"], cfg["target"], _feature_list(cfg))

        def dataset_for(seed: int):
            return base_ds
    else:
        synth_config = SynthConfig(kind=cfg["synth_kind"], n=cfg["n"], p=cfg["p"],
                                   noise_sigma=cfg["sigma"])

        def dataset_for(seed: int):
            return generate(replace(synth_config, seed=seed))

    rows = []
    runs = []
    for seed in seeds:
        try:
            run = compare_run(dataset_for(seed), seed,
                              test_fraction=cfg["test_fraction"], k=cfg["k"],
                              spec=spec, ridge=cfg["ridge"], n_bins=cfg["bins"])
        except (DafrError, ValueError) as err:
            log.warning("seed %d failed: %s", seed, err)
            rows.append([seed, "", "", "", "", str(err)])
            continue
        runs.append(run)
        rows.append([seed, repr(run.baseline_mape), repr(run.dafr_mape),
                     repr(run.oracle_mape), "win" if run.improved else "loss", ""])

    out = Path(cfg["out"])
    with out.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "baseline_mape", "dafr_mape", "oracle_mape",
                         "result", "error"])
        writer.writerows(rows)
        if runs:
            agg = summarize_compare(runs)
            writer.writerow(["aggregate", repr(agg["baseline_mape_mean"]),
                             repr(agg["dafr_mape_mean"]), repr(agg["oracle_mape_mean"]),
                             f"{agg['wins']}/{agg['seeds']} wins", ""])
    write_effective_config("compare", cfg, out)
    if not runs:
        print("pipeline: every seed failed; see " + str(out), file=sys.stderr)
        return 3
    log.info("wrote %s (%d seeds, %d failures)", out, len(seeds), len(seeds) - len(runs))
    return 0


COMMANDS = {
    "train": cmd_train,
    "score": cmd_score,
    "diagnose": cmd_diagnose,
    "synth": cmd_synth,
    "compare": cmd_compare,
}


def _setup_logging() -> None:
    level_name = os.environ.get("DAFR_LOG", "warning").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    _setup_logging()
    try:
        cfg = resolve_config(args)
        return COMMANDS[args.command](cfg)
    except UsageError as err:
        print(f"usage: {err}", file=sys.stderr)
        return 2
    except InputError as err:
        print(f"{err.code}: {err}", file=sys.stderr)
        return 2
    except DafrError as err:
        print(f"{err.code}: {err}", file=sys.stderr)
        return 3
    except ValueError as err:
        print(f"pipeline: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"io: {err}", file=sys.stderr)
        return 3


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
