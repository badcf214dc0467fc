"""Span recorder for the traced benchmark run.

The wrappers are installed from outside the program: every attribute of a
loaded ``dafr`` module that holds one of the public functions below is
replaced, so ``dafr.cli.load_csv`` and ``dafr.dataset.load_csv`` both
record, and two router methods are replaced on the ``KnnRouter`` class.
Spans stay in memory and are written once, when the run ends.

A span is ``{"name", "run", "parent", "start", "end"}`` plus the counts its
hook reads from the call (rows parsed, queries routed, bytes saved, ...).
Self time is a span's duration minus the durations of its direct children;
calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _cells(args, kwargs, result):
    return {"cells": int(result.n_rows * (result.n_features + 1))}


def _feature_cells(args, kwargs, result):
    return {"cells": int(result[0].size)}


def _routed_many(args, kwargs, result):
    router, features = args[0], args[1]
    n = int(np.asarray(features).shape[0])
    return {"queries": n, "n_ref": router.n_references,
            "distance_evals": n * router.n_references}


def _routed_one(args, kwargs, result):
    n_ref = args[0].n_references
    return {"queries": 1, "n_ref": n_ref, "distance_evals": n_ref}


def _saved(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _diagnosed(args, kwargs, result):
    confusion = np.asarray(result.confusion)
    return {"correct_routes": int(np.trace(confusion)), "rows": int(confusion.sum())}


# layer -> (module, {public function: count hook or None})
FUNCTIONS = {
    "cli": ("dafr.cli", {"main": None}),
    "dataset": ("dafr.dataset", {
        "load_csv": _cells, "load_feature_csv": _feature_cells, "write_csv": None,
        "train_test_split": None, "fit_scaler": None,
    }),
    "fitfn": ("dafr.fitfn", {"ols_fit": None}),
    "metrics": ("dafr.metrics", {
        "decile_mape_profile": None, "mape": None, "rmse": None, "mad": None,
        "quantile": None, "bathtub_report": None, "write_profile_csv": None,
    }),
    "simfn": ("dafr.simfn", {"knn_fit": None}),
    "pipeline": ("dafr.pipeline", {
        "dafr_train": None, "dafr_score": None, "diagnose": _diagnosed,
        "save_model": _saved, "load_model": None, "segment_assign": None,
    }),
    "synth": ("dafr.synth", {"generate": None}),
}
# layer -> (module, class, {method: count hook})
METHODS = {
    "simfn": ("dafr.simfn", "KnnRouter", {"route_many": _routed_many, "route": _routed_one}),
}


class Tracer:
    """Records spans for calls made inside ``with tracer.tracing(run_id)``.

    The wrappers exist only inside that block, so code outside it runs
    exactly as untraced.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._run = ""
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def tracing(self, run_id: str):
        self._run = run_id
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def _wrap(self, name: str, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "run": tracer._run,
                    "parent": tracer._stack[-1] if tracer._stack else None}
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                tracer._stack.pop()
            if hook is not None:
                span.update(hook(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Replace the public functions at every name a caller looks up."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "dafr" or name.startswith("dafr."))]
        for layer, (module_name, functions) in FUNCTIONS.items():
            home = importlib.import_module(module_name)
            for attr, hook in functions.items():
                original = getattr(home, attr)
                traced = self._wrap(f"{layer}.{attr}", original, hook)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._undo.append((module, name, original))
                            setattr(module, name, traced)
        for layer, (module_name, class_name, methods) in METHODS.items():
            cls = getattr(importlib.import_module(module_name), class_name)
            for attr, hook in methods.items():
                original = vars(cls)[attr]
                self._undo.append((cls, attr, original))
                setattr(cls, attr, self._wrap(f"{layer}.{attr}", original, hook))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)
            fh.write("\n")


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, covered)]


def by_name(spans: list[dict], runs: set[str]) -> dict[str, dict]:
    """Per span name: call count, total self time and summed counts."""
    table: dict[str, dict] = {}
    for span, self_s in zip(spans, self_times(spans)):
        if span["run"] not in runs:
            continue
        row = table.setdefault(span["name"], {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += self_s
        for key, value in span.items():
            if key in ("name", "run", "parent", "start", "end"):
                continue
            # reference-set size is a level, not a flow: keep the largest
            row[key] = max(row.get(key, 0), value) if key == "n_ref" else row.get(key, 0) + value
    return table
