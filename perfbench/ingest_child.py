"""One ingest_large operation, run in a fresh child process (the benchmark
runs it through ``child.py``, which also reports the child's peak RSS).

    python3 perfbench/ingest_child.py DATA_CSV MODEL_JSON

``dafr`` is imported before the timer starts, so the reported ``ingest_s``
covers load_csv -> dafr_train -> save_model -> load_model and nothing else.
The checks run after the timer stops and their results are printed as one
JSON line. Functions are looked up on their modules at call time, so the
traced run in ``run.py`` sees the same calls through its wrappers.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from dafr import dataset, metrics, pipeline


def digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def ingest(data_path, model_path):
    ds = dataset.load_csv(data_path, "y")
    model = pipeline.dafr_train(ds)
    pipeline.save_model(model, model_path)
    return ds, model, pipeline.load_model(model_path)


def verify(ds, model, reloaded, model_path) -> dict:
    """Digests and bit-exactness facts for the parent to check."""
    X, y = ds.features, ds.target
    oracle = pipeline.dafr_score_oracle(reloaded, X, y)
    exact = (
        np.array_equal(model.baseline.predict(X), reloaded.baseline.predict(X))
        and np.array_equal(pipeline.dafr_score_oracle(model, X, y), oracle)
        and np.array_equal(model.router.reference_points, reloaded.router.reference_points)
        and np.array_equal(model.router.labels, reloaded.router.labels)
    )
    return {
        "x_digest": digest(X),
        "y_digest": digest(y),
        "model_digest": hashlib.sha256(Path(model_path).read_bytes()).hexdigest(),
        "model_bytes": Path(model_path).stat().st_size,
        "reload_exact": bool(exact),
        "mape": metrics.mape(y, oracle),
    }


def main(argv: list[str]) -> int:
    data_path, model_path = argv
    start = perf_counter()
    ds, model, reloaded = ingest(data_path, model_path)
    ingest_s = perf_counter() - start
    out = verify(ds, model, reloaded, model_path)
    out["ingest_s"] = ingest_s
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
