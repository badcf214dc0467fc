"""Training, scoring, persistence, and diagnostics for segmented regression.

Training fits a baseline to all rows, profiles its per-decile error, splits
rows into front/mid/back segments of the target distribution, fits one model
per segment, and fits a KNN router so scoring can pick a segment without
seeing the target. Scoring routes each query and predicts with the routed
segment's model.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, replace
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
        return {
            "q_front": self.q_front,
            "q_back": self.q_back,
            "t_front": self.t_front,
            "t_back": self.t_back,
        }

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
               spec: SegmentSpec | None = None,
               min_segment_rows: int | None = None, n_bins: int = 10) -> DafrModel:
    """Fit baseline, segment models, and router on one training set.

    ``min_segment_rows`` defaults to p+2: one row above what the solver
    needs, so a segment fit is never a pure interpolation. All targets
    equal is accepted with a warning; every row then lands in the front
    segment and all three segment models are that single fit.
    """
    if spec is None:
        spec = SegmentSpec()
    X, y, names = train.features, train.target, train.feature_names
    if min_segment_rows is None:
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
class DiagnoseReport:
    """Baseline vs routed comparison on one evaluation set."""

    n_rows: int
    baseline_mape: float
    dafr_mape: float
    baseline_rmse: float
    dafr_rmse: float
    baseline_mad: float
    dafr_mad: float
    baseline_profile: DecileProfile
    dafr_profile: DecileProfile
    baseline_bathtub: BathtubReport | None
    dafr_bathtub: BathtubReport | None
    confusion: np.ndarray

    def __post_init__(self):
        counts = np.array(self.confusion, dtype=int)
        if counts.shape != (3, 3):
            raise ValueError(f"confusion must be 3x3, got {counts.shape}")
        counts.setflags(write=False)
        object.__setattr__(self, "confusion", counts)

    def to_json(self) -> dict:
        return {
            "n_rows": self.n_rows,
            "overall": {
                "baseline": {"mape": self.baseline_mape, "rmse": self.baseline_rmse,
                             "mad": self.baseline_mad},
                "dafr": {"mape": self.dafr_mape, "rmse": self.dafr_rmse,
                         "mad": self.dafr_mad},
            },
            "bathtub": {
                "baseline": None if self.baseline_bathtub is None
                else self.baseline_bathtub.to_json(),
                "dafr": None if self.dafr_bathtub is None else self.dafr_bathtub.to_json(),
            },
            "profiles": {
                "baseline": self.baseline_profile.to_json(),
                "dafr": self.dafr_profile.to_json(),
            },
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
    by default the model's router routes them. Bathtub summaries are omitted
    (None) when the bin count is not 10. Confusion rows are the true segment
    of each eval target under the trained thresholds; columns are the
    routed segment.
    """
    X, y = eval_data.features, eval_data.target
    if routed is None:
        routed = dafr_score(model, X).segments
    routed = np.asarray(routed, dtype=int)
    if routed.shape != (eval_data.n_rows,):
        raise ValueError(f"{routed.shape} routed labels for {eval_data.n_rows} rows")
    base_pred = model.baseline.predict(X)
    dafr_pred = _predict_by_segment((model.front, model.mid, model.back), X, routed)
    base_profile = decile_mape_profile(y, base_pred, n_bins)
    dafr_profile = decile_mape_profile(y, dafr_pred, n_bins)
    true_labels = segment_assign(y, model.spec)
    confusion = np.bincount(3 * true_labels + routed, minlength=9).reshape(3, 3)
    ten = n_bins == 10
    return DiagnoseReport(
        n_rows=eval_data.n_rows,
        baseline_mape=mape(y, base_pred),
        dafr_mape=mape(y, dafr_pred),
        baseline_rmse=rmse(y, base_pred),
        dafr_rmse=rmse(y, dafr_pred),
        baseline_mad=mad(y, base_pred),
        dafr_mad=mad(y, dafr_pred),
        baseline_profile=base_profile,
        dafr_profile=dafr_profile,
        baseline_bathtub=bathtub_report(base_profile) if ten else None,
        dafr_bathtub=bathtub_report(dafr_profile) if ten else None,
        confusion=confusion,
    )


def model_to_json(model: DafrModel) -> dict:
    """JSON document with a fixed field order; floats keep full precision."""
    return {
        "version": MODEL_VERSION,
        "spec": model.spec.to_json(),
        "baseline": model.baseline.to_json(),
        "front": model.front.to_json(),
        "mid": model.mid.to_json(),
        "back": model.back.to_json(),
        "router": model.router.to_json(),
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
    Path(path).write_text(json.dumps(model_to_json(model)) + "\n", encoding="utf-8")


def load_model(path) -> DafrModel:
    path = Path(path)
    if not path.exists():
        raise InputError(f"no such model file: {path}")
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ModelFormatError(f"{path} is not valid JSON: {err}") from None
    if not isinstance(obj, dict):
        raise ModelFormatError(f"{path}: expected a JSON object at top level")
    return model_from_json(obj)
