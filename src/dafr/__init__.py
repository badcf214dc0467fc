"""Segmented regression with decile error diagnostics and similarity routing.

Train a baseline line fit, inspect its per-decile MAPE profile, split rows
into front/mid/back target segments, fit one model per segment, and route
new observations to segments with a KNN classifier over standardized
features.
"""

from .dataset import (
    Dataset,
    Scaler,
    fit_scaler,
    load_csv,
    load_feature_csv,
    train_test_split,
    write_csv,
)
from .errors import (
    CellError,
    DafrError,
    InputError,
    ModelFormatError,
    RankDeficientError,
    SegmentSizeError,
    WidthMismatchError,
    ZeroTargetError,
)
from .fitfn import LinearModel, ols_fit
from .metrics import (
    BathtubReport,
    DecileProfile,
    ProfileBin,
    bathtub_report,
    decile_mape_profile,
    mad,
    mape,
    quantile,
    read_profile_csv,
    rmse,
    write_profile_csv,
)
from .pipeline import (
    DafrModel,
    DiagnoseReport,
    ScoreResult,
    SegmentSpec,
    dafr_score,
    dafr_score_oracle,
    dafr_train,
    diagnose,
    load_model,
    save_model,
    segment_assign,
)
from .simfn import KnnRouter, SegmentLabel, knn_fit
from .synth import SynthConfig, generate, inject_mid_noise, inject_tail_outliers

__all__ = [
    "BathtubReport",
    "CellError",
    "DafrError",
    "DafrModel",
    "Dataset",
    "DecileProfile",
    "DiagnoseReport",
    "InputError",
    "KnnRouter",
    "LinearModel",
    "ModelFormatError",
    "ProfileBin",
    "RankDeficientError",
    "Scaler",
    "ScoreResult",
    "SegmentLabel",
    "SegmentSizeError",
    "SegmentSpec",
    "SynthConfig",
    "WidthMismatchError",
    "ZeroTargetError",
    "bathtub_report",
    "dafr_score",
    "dafr_score_oracle",
    "dafr_train",
    "decile_mape_profile",
    "diagnose",
    "fit_scaler",
    "generate",
    "inject_mid_noise",
    "inject_tail_outliers",
    "knn_fit",
    "load_csv",
    "load_feature_csv",
    "load_model",
    "mad",
    "mape",
    "ols_fit",
    "quantile",
    "read_profile_csv",
    "rmse",
    "save_model",
    "segment_assign",
    "train_test_split",
    "write_csv",
    "write_profile_csv",
]
