"""Weighted classification scores, expected confusion matrices under a
random threshold, and the resulting score-oriented losses.

Every name the imports below bind is public: ``__all__`` is read off them,
so a name is exported by importing it here and by nothing else.
"""

from types import ModuleType as _ModuleType

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
    combined_loss,
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
from .verify import ScoreGap, expected_score_gap, finite_diff_gradient
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

__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
