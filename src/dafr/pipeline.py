"""Training, scoring, persistence, and diagnostics for segmented regression.

Training fits a baseline to all rows, profiles its per-decile error, splits
rows into front/mid/back segments of the target distribution, fits one model
per segment, and fits a KNN router so scoring can pick a segment without
seeing the target. Scoring routes each query and predicts with the routed
segment's model.
"""

from __future__ import annotations

import json
import mmap
import warnings
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .dataset import Dataset, atomic_write, frozen
from .errors import (
    InputError,
    ModelFormatError,
    RankDeficientError,
    SegmentSizeError,
    WidthMismatchError,
    json_float,
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
from .simfn import TAGS, KnnRouter, SegmentLabel, knn_fit

MODEL_VERSION = 2
# reference rows save_model formats per json.dumps call
_BLOCK_ROWS = 2048
# bytes load_model reads per piece of the model file
_CHUNK_BYTES = 1 << 14
_POINTS = '"reference_points": '
# save_model's reference matrix starts after _HEAD and ends with _TAIL
_HEAD = (_POINTS + "[[").encode()
_TAIL = b']], "labels": ['
# save_model's label tags, each quoted and followed by ", " (NUL-padded to
# one width), and bytes.translate arguments that keep only each tag's first
# letter, turned into the tag's code
_PADDED = np.array([f'"{tag}", '.encode() for tag in TAGS])
_INITIALS = bytes(ord(tag[0]) for tag in TAGS)
_TO_CODE = bytes.maketrans(_INITIALS, bytes(range(len(TAGS))))
_NOT_INITIAL = bytes(b for b in range(256) if b not in _INITIALS)


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
            q_front=float(json_float(obj, "q_front")),
            q_back=float(json_float(obj, "q_back")),
            t_front=None if obj["t_front"] is None else float(json_float(obj, "t_front")),
            t_back=None if obj["t_back"] is None else float(json_float(obj, "t_back")),
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
    training error profiles before and after segmentation. ``segments``
    holds the front, mid and back fits, indexed by SegmentLabel code."""

    spec: SegmentSpec
    baseline: LinearModel
    segments: tuple[LinearModel, LinearModel, LinearModel]
    router: KnnRouter
    train_profile_before: DecileProfile
    train_profile_after: DecileProfile

    def __post_init__(self):
        if not self.spec.resolved:
            raise ValueError("model requires a resolved SegmentSpec")
        if len(self.segments) != len(SegmentLabel):
            raise ValueError(f"{len(self.segments)} segment models, need {len(SegmentLabel)}")
        widths = {m.n_features for m in (self.baseline, *self.segments, self.router)}
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


def _predict_by_segment(segments, features: np.ndarray,
                        labels: np.ndarray) -> np.ndarray:
    """Predict each row with the (front, mid, back) fit its label picks."""
    out = np.empty(features.shape[0])
    for seg, fit in zip(SegmentLabel, segments):
        mask = labels == int(seg)
        if mask.any():
            out[mask] = fit.predict(features[mask])
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
        segments = (_fit_named(X, y, ridge, names, "front segment"),) * 3
    else:
        sizes = np.bincount(labels, minlength=3)
        small = [SegmentLabel(i).tag for i, c in enumerate(sizes) if c < min_segment_rows]
        if small:
            raise SegmentSizeError(
                f"segment(s) {', '.join(small)} have fewer than "
                f"{min_segment_rows} rows (sizes: {_segment_sizes_text(sizes)}); "
                f"move q_front/q_back so every segment gets enough rows"
            )
        segments = tuple(_fit_named(X[labels == seg], y[labels == seg], ridge, names,
                                    f"{seg.tag} segment") for seg in SegmentLabel)

    # recombined profile routes by true training segment; the router is
    # fit afterwards and plays no part here
    yhat_after = _predict_by_segment(segments, X, labels)
    profile_after = decile_mape_profile(y, yhat_after, n_bins)

    return DafrModel(
        spec=resolved,
        baseline=baseline,
        segments=segments,
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
        object.__setattr__(self, "predictions", frozen(self.predictions))
        object.__setattr__(self, "segments", frozen(self.segments, int))
        object.__setattr__(self, "nearest_distance", frozen(self.nearest_distance))


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
    labels, dist = model.router.route_many(X)
    preds = _predict_by_segment(model.segments, X, labels)
    return ScoreResult(preds, labels, dist)


def dafr_score_oracle(model: DafrModel, features, y_true) -> np.ndarray:
    """Evaluation-only ceiling: route by the true target instead of the router."""
    X = _check_width(model, features)
    labels = segment_assign(y_true, model.spec)
    return _predict_by_segment(model.segments, X, labels)


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
        counts = frozen(self.confusion, int)
        if counts.shape != (3, 3):
            raise ValueError(f"confusion must be 3x3, got {counts.shape}")
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
    bad = routed[(routed < 0) | (routed >= len(SegmentLabel))]
    if bad.size:
        raise ValueError(f"routed labels must be codes 0/1/2, got {sorted(set(bad.tolist()))}")
    baseline = SideReport.of(y, model.baseline.predict(X), n_bins)
    dafr = SideReport.of(
        y, _predict_by_segment(model.segments, X, routed), n_bins)
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
        **{tag: fit.to_json() for tag, fit in zip(TAGS, model.segments)},
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
            segments=tuple(LinearModel.from_json(obj[tag]) for tag in TAGS),
            router=KnnRouter.from_json(obj["router"]),
            train_profile_before=DecileProfile.from_json(obj["profiles"]["before"]),
            train_profile_after=DecileProfile.from_json(obj["profiles"]["after"]),
        )
    except (KeyError, TypeError, ValueError) as err:
        raise ModelFormatError(f"malformed model document: {err}") from None


def save_model(model: DafrModel, path) -> None:
    """Write ``json.dumps(model_to_json(model)) + "\\n"`` a block of reference
    rows at a time, through ``atomic_write``."""
    head, tail = json.dumps(model_to_json(model, with_points=False)).split(_POINTS + "null")
    refs = model.router.reference_points
    with atomic_write(path) as fh:
        fh.write(head + _POINTS + "[")
        for lo in range(0, len(refs), _BLOCK_ROWS):
            block = json.dumps(refs[lo:lo + _BLOCK_ROWS].tolist())[1:-1]
            fh.write(", " + block if lo else block)
        fh.write("]" + tail + "\n")


def _label_codes(text: bytes) -> np.ndarray | None:
    """Segment codes of a labels list spelled exactly as save_model spells
    it, else None. A tag's first letter occurs in no other tag, so the
    codes are those letters in order; rendering them back must give
    ``text``, byte for byte."""
    codes = np.frombuffer(text.translate(_TO_CODE, _NOT_INITIAL), dtype=np.int8)
    rendered = _PADDED[codes].tobytes().replace(b"\0", b"")
    return codes if text[1:-1] == rendered[:-2] else None


def _row_blocks(fh, lo: int, hi: int):
    """Float blocks of the rows ``[..], [..], ...`` in bytes [lo, hi) of the
    file, read a piece at a time and parsed up to the last row separator."""
    fh.seek(lo)
    rest = b""
    while lo < hi:
        piece = fh.read(min(_CHUNK_BYTES, hi - lo))
        if not piece:
            raise ValueError("model file shrank while read")
        lo += len(piece)
        text = rest + piece
        cut = text.rfind(b"], [") + 1 if lo < hi else len(text)
        rest = text[cut + 2:] if cut else text
        if cut:
            yield np.array(json.loads((b"[" + text[:cut] + b"]").decode("utf-8")), dtype=float)


def _read_in_pieces(path) -> dict:
    """The document at ``path`` in save_model's layout, holding one piece of
    the reference matrix's text at a time; raises on any other layout.

    It maps the file read-only just long enough to find the first
    ``"reference_points": [[`` and the last ``]], "labels": [``, which
    closes the matrix, and to copy the head and the tail around them; the
    rows are read through ``fh``, so their pages never count in the
    process's resident memory. It decodes the labels with ``_label_codes``,
    which gives the row count, and parses head + ``null`` + tail with
    ``null`` for the labels too. Then it parses the rows, piece by piece,
    into one preallocated read-only matrix that the router keeps. Parsing the whole text gives the same document: the head
    and tail hold no backslash (no escaped key), the head one
    ``"reference_points"`` and the tail none (so the null stands for the
    document's only such key, which must be the router's), the tail one
    ``"labels"``, and every piece is a list of equal-width rows.
    """
    with open(path, "rb") as fh:
        with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as view:
            start, end = view.find(_HEAD) + len(_HEAD), view.rfind(_TAIL)
            if not len(_HEAD) <= start <= end:
                raise ValueError("not save_model's layout")
            head, tail = view[:start - 2], view[end + 2:]
        if (b"\\" in head + tail or head.count(b"reference_points") != 1
                or b"reference_points" in tail):
            raise ValueError("not save_model's layout")
        at = len(_TAIL) - 3
        close = tail.index(b"]", at) + 1
        codes = _label_codes(tail[at:close])
        if codes is None or tail.count(b'"labels"') != 1:
            raise ValueError("not save_model's layout")
        obj = json.loads((head + b"null" + tail[:at] + b"null" + tail[close:]).decode("utf-8"))
        router = obj["router"]
        if router["reference_points"] is not None:
            raise ValueError("not save_model's layout")
        router["labels"] = codes
        n, row, points = len(codes), 0, None
        for block in _row_blocks(fh, start - 1, end + 1):
            if points is None:
                points = np.empty((n, block.shape[1]))
            if block.shape[1:] != points.shape[1:] or row + len(block) > n:
                raise ValueError("reference rows differ in shape or count from the labels")
            points[row:row + len(block)] = block
            row += len(block)
    if row != n:
        raise ValueError(f"{row} reference rows for {n} labels")
    points.setflags(write=False)
    router["reference_points"] = points
    return obj


def load_model(path) -> DafrModel:
    """The model saved at ``path``. A file in save_model's layout has its
    matrix read a piece of ``_CHUNK_BYTES`` at a time, so beyond the model
    this needs about one piece (and the labels' text, before the matrix
    exists); any other layout is parsed whole, holding the whole file, to
    the same result or the same error. Another process that truncates the
    file in place while ``_read_in_pieces`` has it mapped kills this one
    with SIGBUS; save_model replaces files by rename, which is safe."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"no such model file: {path}")
    try:
        obj = _read_in_pieces(path)
    except Exception:  # parse below, outside the handler: no chained errors
        obj = None
    if obj is None:
        try:
            obj = json.loads(path.read_bytes().decode("utf-8"))
        except json.JSONDecodeError as err:
            raise ModelFormatError(f"{path} is not valid JSON: {err}") from None
    if not isinstance(obj, dict):
        raise ModelFormatError(f"{path}: expected a JSON object at top level")
    return model_from_json(obj)
