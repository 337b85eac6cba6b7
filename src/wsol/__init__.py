"""Weighted classification scores, expected confusion matrices under a
random threshold, and the resulting score-oriented losses."""

from .confusion import (
    ConfusionCounts,
    WeightedCounts,
    hard_confusion,
    weighted_hard_confusion,
)
from .errors import (
    ConfigError,
    DegenerateDenominatorError,
    InputError,
    TrainingDivergedError,
    UnsupportedCombinationError,
    ValidationError,
    WsolError,
)
from .expected import (
    ExpectedConfusion,
    expected_confusion,
    expected_tp_tn,
    expected_wfn,
    expected_wfp,
)
from .loss import (
    CombinedLossSpec,
    GradientVector,
    LossSpec,
    ScoreGap,
    combined_loss,
    expected_score_gap,
    finite_diff_gradient,
    loss_gradient,
    loss_value,
)
from .multilabel import (
    Aggregator,
    MultilabelSeries,
    MultilabelSpec,
    multilabel_global_score,
    multilabel_wsol,
)
from .oracle import (
    exact_expected_confusion,
    exact_expected_score,
    mc_expected_confusion,
    mc_expected_score,
)
from .scores import ScoreKind, ScoreValue, apply_score, score_partials
from .series import LabeledSeries, read_series_csv, write_series_csv
from .threshold import ThresholdDistribution, regularized_incomplete_beta
from .weights import (
    CostWeight,
    CrossEntropyWeight,
    UnitWeight,
    ValueMaxWeight,
    ValueProdWeight,
    WeightSpec,
    eval_weight,
)

__version__ = "0.1.0"

__all__ = [
    "Aggregator",
    "CombinedLossSpec",
    "ConfigError",
    "ConfusionCounts",
    "CostWeight",
    "CrossEntropyWeight",
    "DegenerateDenominatorError",
    "ExpectedConfusion",
    "GradientVector",
    "InputError",
    "LabeledSeries",
    "LossSpec",
    "MultilabelSeries",
    "MultilabelSpec",
    "ScoreGap",
    "ScoreKind",
    "ScoreValue",
    "ThresholdDistribution",
    "TrainingDivergedError",
    "UnitWeight",
    "UnsupportedCombinationError",
    "ValidationError",
    "ValueMaxWeight",
    "ValueProdWeight",
    "WeightSpec",
    "WeightedCounts",
    "WsolError",
    "apply_score",
    "combined_loss",
    "eval_weight",
    "exact_expected_confusion",
    "exact_expected_score",
    "expected_confusion",
    "expected_score_gap",
    "expected_tp_tn",
    "expected_wfn",
    "expected_wfp",
    "finite_diff_gradient",
    "hard_confusion",
    "loss_gradient",
    "loss_value",
    "mc_expected_confusion",
    "mc_expected_score",
    "multilabel_global_score",
    "multilabel_wsol",
    "read_series_csv",
    "regularized_incomplete_beta",
    "score_partials",
    "weighted_hard_confusion",
    "write_series_csv",
]
