"""One-versus-rest extension: per-class expected matrices, one global score.

Each class gets its own threshold prior and weight spec; the per-class
scores are gathered by an aggregator (mean, weighted mean, or min) into a
global score, and the multilabel loss is its negation.  A sample may be
positive in several columns at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, check_convex
from .loss import LossEvaluation, LossSpec, evaluate_loss
from .scores import ScoreKind
from .series import LabeledSeries
from .threshold import ThresholdDistribution
from .weights import WeightSpec


@dataclass(frozen=True, eq=False)
class MultilabelSeries:
    labels: np.ndarray
    predictions: np.ndarray
    columns: tuple[LabeledSeries, ...] = field(init=False, repr=False)

    def __post_init__(self):
        labels = np.asarray(self.labels)
        preds = np.asarray(self.predictions, dtype=np.float64)
        if labels.ndim != 2 or preds.shape != labels.shape:
            raise ValidationError("labels and predictions must be (n, d) and congruent")
        if labels.shape[1] < 2:
            raise ValidationError("multilabel series needs at least 2 classes")
        columns = tuple(LabeledSeries(p, y) for p, y in zip(preds.T, labels.T))
        object.__setattr__(self, "labels", labels.astype(np.int64))
        object.__setattr__(self, "predictions", preds)
        object.__setattr__(self, "columns", columns)

    @property
    def n(self) -> int:
        return self.labels.shape[0]

    @property
    def num_classes(self) -> int:
        return self.labels.shape[1]

    def column(self, j: int) -> LabeledSeries:
        return self.columns[j]


@dataclass(frozen=True)
class Aggregator:
    """How per-class scores merge: ``mean``, ``weighted_mean``, or ``min``."""

    kind: str
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("mean", "weighted_mean", "min"):
            raise ValidationError(f"unknown aggregator {self.kind!r}")
        if self.kind == "weighted_mean":
            if not self.weights:
                raise ValidationError("weighted_mean needs weights")
            w = check_convex("aggregator weights", self.weights)
            object.__setattr__(self, "weights", w)
        elif self.weights is not None:
            raise ValidationError(f"{self.kind} aggregator takes no weights")

    def combine(self, scores: np.ndarray) -> float:
        if self.kind == "mean":
            return float(np.mean(scores))
        if self.kind == "weighted_mean":
            return float(np.dot(self.weights, scores))
        return float(np.min(scores))

    def partials(self, scores: np.ndarray) -> tuple[np.ndarray, bool]:
        """Derivative of the combined score per class; min flags ties."""
        d = scores.size
        if self.kind == "mean":
            return np.full(d, 1.0 / d), False
        if self.kind == "weighted_mean":
            return np.asarray(self.weights), False
        out = np.zeros(d)
        winner = int(np.argmin(scores))
        out[winner] = 1.0
        tied = bool(np.sum(scores == scores[winner]) > 1)
        return out, tied


@dataclass(frozen=True)
class MultilabelSpec:
    class_specs: tuple[tuple[ThresholdDistribution, WeightSpec], ...]
    score: ScoreKind
    aggregator: Aggregator

    def __post_init__(self):
        if len(self.class_specs) < 2:
            raise ValidationError("multilabel spec needs at least 2 classes")
        if (
            self.aggregator.kind == "weighted_mean"
            and len(self.aggregator.weights) != len(self.class_specs)
        ):
            raise ValidationError("aggregator weights must match the class count")

    @property
    def num_classes(self) -> int:
        return len(self.class_specs)


def _check_shape(ml: MultilabelSeries, spec: MultilabelSpec) -> None:
    if ml.num_classes != spec.num_classes:
        raise ValidationError(
            f"series has {ml.num_classes} classes, spec has {spec.num_classes}"
        )


def _class_losses(
    ml: MultilabelSeries, spec: MultilabelSpec
) -> tuple[list[LossEvaluation], np.ndarray]:
    """Each class column's loss evaluation and score; degenerate columns score 0."""
    _check_shape(ml, spec)
    evals = [
        evaluate_loss(ml.column(j), LossSpec(spec.score, wspec, dist))
        for j, (dist, wspec) in enumerate(spec.class_specs)
    ]
    return evals, np.array([-ev.value for ev in evals])


def per_class_scores(ml: MultilabelSeries, spec: MultilabelSpec) -> np.ndarray:
    """Score of each class column; degenerate columns score 0."""
    return _class_losses(ml, spec)[1]


def multilabel_global_score(ml: MultilabelSeries, spec: MultilabelSpec) -> float:
    return spec.aggregator.combine(per_class_scores(ml, spec))


@dataclass(frozen=True)
class MultilabelGradient:
    values: np.ndarray
    nonsmooth: bool = False


def multilabel_wsol(
    ml: MultilabelSeries, spec: MultilabelSpec
) -> tuple[float, MultilabelGradient]:
    """Loss (negated global score) and its gradient over all n x d predictions.

    Perturbing class j's predictions moves only class j's score, so the
    gradient factors into per-class blocks scaled by the aggregator
    partials; for ``min`` only the active class carries gradient, one-sided
    at ties.  Each class's expected matrix is computed once and serves
    both its score and its gradient block; a class with a zero aggregator
    partial is not differentiated, so an inactive degenerate class is
    harmless.
    """
    evals, scores = _class_losses(ml, spec)
    mu_partials, tied = spec.aggregator.partials(scores)
    grad = np.zeros_like(ml.predictions)
    nonsmooth = tied
    for j, ev in enumerate(evals):
        if mu_partials[j] == 0.0:
            continue
        g = ev.gradient()
        grad[:, j] = mu_partials[j] * g.values
        nonsmooth = nonsmooth or g.nonsmooth
    return -spec.aggregator.combine(scores), MultilabelGradient(
        values=grad, nonsmooth=nonsmooth
    )

