"""Training, scoring, persistence, and diagnostics for segmented regression.

Training fits a baseline to all rows, profiles its per-decile error, splits
rows into front/mid/back segments of the target distribution, fits one model
per segment, and fits a KNN router so scoring can pick a segment without
seeing the target. Scoring routes each query and predicts with the routed
segment's model.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .dataset import Dataset
from .errors import (
    InputError,
    ModelFormatError,
    RankDeficientError,
    SegmentSizeError,
    WidthMismatchError,
)
from .fitfn import LinearModel, ols_fit
from .metrics import (
    BathtubReport,
    DecileProfile,
    bathtub_report,
    decile_mape_profile,
    mad,
    mape,
    quantile,
    rmse,
)
from .simfn import KnnRouter, SegmentLabel, knn_fit

MODEL_VERSION = 2
# reference rows save_model formats per json.dumps call
_BLOCK_ROWS = 2048
# bytes of reference rows load_model parses per json.loads call
_CHUNK_BYTES = 1 << 16
_POINTS = '"reference_points": '


@dataclass(frozen=True)
class SegmentSpec:
    """Quantile boundaries of the front/mid/back split.

    ``q_front`` and ``q_back`` are fractions of the target distribution;
    the concrete thresholds ``t_front`` and ``t_back`` are resolved from
    training targets at fit time.
    """

    q_front: float = 0.3
    q_back: float = 0.7
    t_front: float | None = None
    t_back: float | None = None

    def __post_init__(self):
        if not 0.0 < self.q_front < 1.0:
            raise ValueError(f"q_front must lie in (0, 1), got {self.q_front}")
        if not 0.0 < self.q_back < 1.0:
            raise ValueError(f"q_back must lie in (0, 1), got {self.q_back}")
        if self.q_front >= self.q_back:
            raise ValueError(
                f"q_front must be smaller than q_back, got {self.q_front} >= {self.q_back}"
            )
        if (self.t_front is None) != (self.t_back is None):
            raise ValueError("resolve both thresholds or neither")
        if self.resolved and self.t_front > self.t_back:
            raise ValueError(
                f"t_front {self.t_front} exceeds t_back {self.t_back}"
            )

    @property
    def resolved(self) -> bool:
        return self.t_front is not None

    def resolve(self, target) -> "SegmentSpec":
        """Turn quantile fractions into concrete target thresholds."""
        return replace(
            self,
            t_front=quantile(target, self.q_front),
            t_back=quantile(target, self.q_back),
        )

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "SegmentSpec":
        return cls(
            q_front=float(obj["q_front"]),
            q_back=float(obj["q_back"]),
            t_front=None if obj["t_front"] is None else float(obj["t_front"]),
            t_back=None if obj["t_back"] is None else float(obj["t_back"]),
        )


def segment_assign(target, spec: SegmentSpec) -> np.ndarray:
    """Segment code per row: FRONT if y <= t_front, BACK if y > t_back, else MID."""
    if not spec.resolved:
        raise ValueError("thresholds not resolved; call spec.resolve(train_target) first")
    y = np.asarray(target, dtype=float).ravel()
    if not np.isfinite(y).all():
        raise ValueError("target contains NaN or infinite values")
    labels = np.full(y.shape[0], int(SegmentLabel.MID), dtype=int)
    labels[y > spec.t_back] = int(SegmentLabel.BACK)
    labels[y <= spec.t_front] = int(SegmentLabel.FRONT)
    return labels


@dataclass(frozen=True)
class DafrModel:
    """Everything scoring needs: per-segment models, router, and the
    training error profiles before and after segmentation."""

    spec: SegmentSpec
    baseline: LinearModel
    front: LinearModel
    mid: LinearModel
    back: LinearModel
    router: KnnRouter
    train_profile_before: DecileProfile
    train_profile_after: DecileProfile

    def __post_init__(self):
        if not self.spec.resolved:
            raise ValueError("model requires a resolved SegmentSpec")
        widths = {
            self.baseline.n_features, self.front.n_features,
            self.mid.n_features, self.back.n_features, self.router.n_features,
        }
        if len(widths) != 1:
            raise ValueError(f"models disagree on feature width: {sorted(widths)}")

    @property
    def n_features(self) -> int:
        return self.baseline.n_features


def _segment_sizes_text(sizes) -> str:
    return ", ".join(
        f"{SegmentLabel(i).tag}={int(c)}" for i, c in enumerate(sizes)
    )


def _fit_named(X, y, ridge: float, feature_names, where: str) -> LinearModel:
    try:
        return ols_fit(X, y, ridge, feature_names)
    except RankDeficientError as err:
        raise RankDeficientError(f"{where} fit: {err}") from None


def _predict_by_segment(models, features: np.ndarray,
                        labels: np.ndarray) -> np.ndarray:
    """Predict each row with the (front, mid, back) model its label picks."""
    out = np.empty(features.shape[0])
    for seg, model in zip(SegmentLabel, models):
        mask = labels == int(seg)
        if mask.any():
            out[mask] = model.predict(features[mask])
    return out


def dafr_train(train: Dataset, ridge: float = 0.0, k: int = 5,
               spec: SegmentSpec | None = None, n_bins: int = 10) -> DafrModel:
    """Fit baseline, segment models, and router on one training set.

    Every segment needs at least p+2 rows: one row above what the solver
    needs, so a segment fit is never a pure interpolation. All targets
    equal is accepted with a warning; every row then lands in the front
    segment and all three segment models are that single fit.
    """
    if spec is None:
        spec = SegmentSpec()
    X, y, names = train.features, train.target, train.feature_names
    min_segment_rows = train.n_features + 2

    baseline = _fit_named(X, y, ridge, names, "baseline")
    profile_before = decile_mape_profile(y, baseline.predict(X), n_bins)

    resolved = spec.resolve(y)
    labels = segment_assign(y, resolved)
    degenerate = np.ptp(y) == 0.0
    if degenerate:
        warnings.warn(
            "all target values are equal; every row lands in the front "
            "segment and one shared model is fit",
            stacklevel=2,
        )
        front = _fit_named(X, y, ridge, names, "front segment")
        mid = back = front
    else:
        sizes = np.bincount(labels, minlength=3)
        small = [SegmentLabel(i).tag for i, c in enumerate(sizes) if c < min_segment_rows]
        if small:
            raise SegmentSizeError(
                f"segment(s) {', '.join(small)} have fewer than "
                f"{min_segment_rows} rows (sizes: {_segment_sizes_text(sizes)}); "
                f"move q_front/q_back so every segment gets enough rows"
            )
        parts = []
        for seg in SegmentLabel:
            mask = labels == int(seg)
            parts.append(_fit_named(X[mask], y[mask], ridge, names, f"{seg.tag} segment"))
        front, mid, back = parts

    # recombined profile routes by true training segment; the router is
    # fit afterwards and plays no part here
    yhat_after = _predict_by_segment((front, mid, back), X, labels)
    profile_after = decile_mape_profile(y, yhat_after, n_bins)

    return DafrModel(
        spec=resolved,
        baseline=baseline,
        front=front,
        mid=mid,
        back=back,
        router=knn_fit(X, labels, k=k),
        train_profile_before=profile_before,
        train_profile_after=profile_after,
    )


@dataclass(frozen=True)
class ScoreResult:
    """Predictions plus the routing trace that produced them."""

    predictions: np.ndarray
    segments: np.ndarray
    nearest_distance: np.ndarray

    def __post_init__(self):
        for name in ("predictions", "segments", "nearest_distance"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _check_width(model: DafrModel, features) -> np.ndarray:
    X = np.asarray(features, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"features must be a 2-D matrix, got ndim={X.ndim}")
    if X.shape[1] != model.n_features:
        raise WidthMismatchError(
            f"model was trained on {model.n_features} feature column(s), "
            f"input has {X.shape[1]}"
        )
    return X


def dafr_score(model: DafrModel, features) -> ScoreResult:
    """Route each row to a segment, predict with that segment's model."""
    X = _check_width(model, features)
    labels, dist = model.router.route_many(X, return_distance=True)
    preds = _predict_by_segment((model.front, model.mid, model.back), X, labels)
    return ScoreResult(preds, labels, dist)


def dafr_score_oracle(model: DafrModel, features, y_true) -> np.ndarray:
    """Evaluation-only ceiling: route by the true target instead of the router."""
    X = _check_width(model, features)
    labels = segment_assign(y_true, model.spec)
    return _predict_by_segment((model.front, model.mid, model.back), X, labels)


@dataclass(frozen=True)
class SideReport:
    """Error figures of one set of predictions on the evaluation rows."""

    mape: float
    rmse: float
    mad: float
    profile: DecileProfile
    bathtub: BathtubReport | None

    @classmethod
    def of(cls, y, pred, n_bins: int) -> "SideReport":
        """Figures of ``pred`` against ``y``; the bathtub summary is None
        when the bin count is not 10."""
        profile = decile_mape_profile(y, pred, n_bins)
        return cls(mape(y, pred), rmse(y, pred), mad(y, pred), profile,
                   bathtub_report(profile) if n_bins == 10 else None)


@dataclass(frozen=True)
class DiagnoseReport:
    """Baseline vs routed comparison on one evaluation set."""

    n_rows: int
    baseline: SideReport
    dafr: SideReport
    confusion: np.ndarray

    def __post_init__(self):
        counts = np.array(self.confusion, dtype=int)
        if counts.shape != (3, 3):
            raise ValueError(f"confusion must be 3x3, got {counts.shape}")
        counts.setflags(write=False)
        object.__setattr__(self, "confusion", counts)

    def to_json(self) -> dict:
        sides = {"baseline": self.baseline, "dafr": self.dafr}
        return {
            "n_rows": self.n_rows,
            "overall": {name: {"mape": s.mape, "rmse": s.rmse, "mad": s.mad}
                        for name, s in sides.items()},
            "bathtub": {name: None if s.bathtub is None else s.bathtub.to_json()
                        for name, s in sides.items()},
            "profiles": {name: s.profile.to_json() for name, s in sides.items()},
            "confusion": {
                "labels": [seg.tag for seg in SegmentLabel],
                "true_by_routed": [[int(v) for v in row] for row in self.confusion],
            },
        }


def diagnose(model: DafrModel, eval_data: Dataset, n_bins: int = 10,
             routed=None) -> DiagnoseReport:
    """Profile baseline and routed predictions side by side on eval data.

    ``routed`` gives each eval row's segment code when the caller has
    already routed the rows (the training summary routes them leave-one-out);
    by default the model's router routes them. Confusion rows are the true
    segment of each eval target under the trained thresholds; columns are
    the routed segment.
    """
    X, y = eval_data.features, eval_data.target
    if routed is None:
        routed = dafr_score(model, X).segments
    routed = np.asarray(routed, dtype=int)
    if routed.shape != (eval_data.n_rows,):
        raise ValueError(f"{routed.shape} routed labels for {eval_data.n_rows} rows")
    baseline = SideReport.of(y, model.baseline.predict(X), n_bins)
    dafr = SideReport.of(
        y, _predict_by_segment((model.front, model.mid, model.back), X, routed), n_bins)
    true_labels = segment_assign(y, model.spec)
    confusion = np.bincount(3 * true_labels + routed, minlength=9).reshape(3, 3)
    return DiagnoseReport(eval_data.n_rows, baseline, dafr, confusion)


def model_to_json(model: DafrModel, with_points: bool = True) -> dict:
    """JSON document with a fixed field order; floats keep full precision.
    ``with_points=False`` leaves the router's reference matrix null."""
    return {
        "version": MODEL_VERSION,
        "spec": model.spec.to_json(),
        "baseline": model.baseline.to_json(),
        "front": model.front.to_json(),
        "mid": model.mid.to_json(),
        "back": model.back.to_json(),
        "router": model.router.to_json(with_points),
        "profiles": {
            "before": model.train_profile_before.to_json(),
            "after": model.train_profile_after.to_json(),
        },
    }


def model_from_json(obj: dict) -> DafrModel:
    try:
        version = obj["version"]
        if version != MODEL_VERSION:
            raise ModelFormatError(
                f"unsupported model version {version!r}, this build reads "
                f"version {MODEL_VERSION}; retrain with `dafr train --config "
                f"<model>.config.json`, the config file saved next to the model"
            )
        return DafrModel(
            spec=SegmentSpec.from_json(obj["spec"]),
            baseline=LinearModel.from_json(obj["baseline"]),
            front=LinearModel.from_json(obj["front"]),
            mid=LinearModel.from_json(obj["mid"]),
            back=LinearModel.from_json(obj["back"]),
            router=KnnRouter.from_json(obj["router"]),
            train_profile_before=DecileProfile.from_json(obj["profiles"]["before"]),
            train_profile_after=DecileProfile.from_json(obj["profiles"]["after"]),
        )
    except (KeyError, TypeError, ValueError) as err:
        raise ModelFormatError(f"malformed model document: {err}") from None


def save_model(model: DafrModel, path) -> None:
    """Write ``json.dumps(model_to_json(model)) + "\\n"`` a block of reference
    rows at a time, into a temp file that replaces ``path`` once complete."""
    path = Path(path)
    head, tail = json.dumps(model_to_json(model, with_points=False)).split(_POINTS + "null")
    refs = model.router.reference_points
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(head + _POINTS + "[")
            for lo in range(0, len(refs), _BLOCK_ROWS):
                block = json.dumps(refs[lo:lo + _BLOCK_ROWS].tolist())[1:-1]
                fh.write(", " + block if lo else block)
            fh.write("]" + tail + "\n")
        os.replace(tmp, path)
    except OSError as err:  # name the target, as a direct write to it would
        raise OSError(err.errno, err.strerror, str(path)) from None
    finally:
        tmp.unlink(missing_ok=True)


def _streamed_document(data: bytes) -> dict:
    """The document in ``data``, its reference matrix parsed a chunk of rows
    at a time into one array. Raises unless the layout is save_model's: one
    ``"reference_points": [[`` and no backslash (no escaped key) outside it."""
    start = data.find((_POINTS + "[[").encode()) + len(_POINTS)
    if start < len(_POINTS) or data.count(b"reference_points") != 1:
        raise ValueError("not save_model's layout")
    end = data.index(b"]]", start) + 2
    obj = json.loads((data[:start] + b"null" + data[end:]).decode("utf-8"))
    if b"\\" in data[:start] + data[end:] or obj["router"]["reference_points"] is not None:
        raise ValueError("not save_model's layout")
    # n and p from the separators and the first row; a miscount fails below
    n = data.count(b"], [", start, end) + 1
    p = data.count(b", ", start, data.index(b"]", start)) + 1
    points, row, lo = np.empty((n, p)), 0, start + 1
    while lo < end - 1:
        cut = data.find(b"], [", lo + _CHUNK_BYTES, end)
        hi = end - 1 if cut < 0 else cut + 1
        block = np.array(json.loads("[" + data[lo:hi].decode("utf-8") + "]"), dtype=float)
        if block.shape[1:] != (p,):
            raise ValueError("reference rows differ in shape")
        points[row:row + len(block)] = block
        row, lo = row + len(block), hi + 2
    if row != n:
        raise ValueError(f"{row} reference rows parsed, {n} counted")
    obj["router"]["reference_points"] = points
    return obj


def load_model(path) -> DafrModel:
    path = Path(path)
    if not path.exists():
        raise InputError(f"no such model file: {path}")
    data = path.read_bytes()
    try:
        obj = _streamed_document(data)
    except Exception:  # parse below, outside the handler: no chained errors
        obj = None
    if obj is None:
        try:
            obj = json.loads(data.decode("utf-8"))
        except json.JSONDecodeError as err:
            raise ModelFormatError(f"{path} is not valid JSON: {err}") from None
    del data  # before the router copies the parsed matrix
    if not isinstance(obj, dict):
        raise ModelFormatError(f"{path}: expected a JSON object at top level")
    return model_from_json(obj)
