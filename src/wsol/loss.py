"""Score-oriented losses: negated scores of expected weighted matrices.

The loss of a batch is -s(expected weighted confusion matrix).  Because
the expectation replaces indicators with the prior cdf F, each entry's
derivative in p_i is the prior density f(p_i) times a slope: -1 on
negatives for tn, 1 on positives for tp, ``error_slopes`` for wFP and wFN.
The gradient chains the score partials with the slopes, then multiplies by
the density once per component; the model's Jacobian is the trainer's job.
``evaluate_loss`` computes each component's expected matrix once; the
value and, if asked for, the gradient are both read off that evaluation.

At value-weight kinks (a window prediction exactly equal to the current
one, or a tie inside the window's chain) a one-sided derivative is
returned and the result is flagged non-smooth rather than silently
picking a subgradient.

The checks of these closed forms, central differences of ``loss_value``
and the gap between s(E[wCM]) and an oracle's E[s(wCM)], live in
``wsol.verify``; this module imports no oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, check_convex
from .expected import ExpectedConfusion, expected_confusion
from .scores import ScoreKind, apply_score, score_partials
from .series import LabeledSeries
from .threshold import ThresholdDistribution
from .weights import WeightSpec


@dataclass(frozen=True)
class LossSpec:
    score: ScoreKind
    weights: WeightSpec
    dist: ThresholdDistribution

    def __post_init__(self):
        self.weights.check_prior(self.dist)

    @property
    def components(self) -> tuple[tuple[LossSpec, float], ...]:
        """A single loss is the one-component combination with coefficient 1."""
        return ((self, 1.0),)


@dataclass(frozen=True)
class CombinedLossSpec:
    """Convex combination of losses; coefficients must sum to one."""

    components: tuple[tuple[LossSpec, float], ...]

    def __post_init__(self):
        if not self.components:
            raise ValidationError("combined loss needs at least one component")
        betas = check_convex(
            "combination coefficients", [beta for _, beta in self.components]
        )
        object.__setattr__(
            self,
            "components",
            tuple((spec, beta) for (spec, _), beta in zip(self.components, betas)),
        )


@dataclass(frozen=True)
class GradientVector:
    values: np.ndarray
    kink_indices: tuple[int, ...] = ()

    @property
    def nonsmooth(self) -> bool:
        """Whether some entry is only a one-sided derivative."""
        return bool(self.kink_indices)


@dataclass(frozen=True)
class LossResult:
    """One loss on one series: its value and the expected matrix it scores,
    at which a gradient takes the score partials."""

    value: float
    degenerate: bool
    expected: ExpectedConfusion = field(repr=False)


@dataclass(frozen=True)
class LossEvaluation:
    """A loss evaluated on one series: one result per component.

    The value needs only the expected matrices; the gradient, taken
    later or not at all, reuses them, and only it builds the slopes.
    """

    series: LabeledSeries
    spec: LossSpec | CombinedLossSpec
    results: tuple[LossResult, ...] = field(repr=False)

    @property
    def value(self) -> float:
        """Loss value; a combination weights each component by its coefficient."""
        return sum(
            beta * r.value for (_, beta), r in zip(self.spec.components, self.results)
        )

    def gradient(self) -> GradientVector:
        """Analytic gradient (per prediction) at the evaluated matrices.

        Raises DegenerateDenominatorError where a score partial is undefined.
        """
        series = self.series
        grad = np.zeros(series.n)
        kinks: set[int] = set()
        for (spec, beta), r in zip(self.spec.components, self.results):
            # The score partials at the result's expected matrix chained with
            # the entry slopes, then the prior density every slope shares.
            s_tn, s_wfp, s_wfn, s_tp = score_partials(spec.score, *r.expected.entries())
            fp, fn, k = spec.weights.error_slopes(series, spec.dist)
            slope = s_tn * -series.neg + s_wfp * fp + s_wfn * fn + s_tp * series.pos
            slope *= spec.dist.pdf(series.predictions)
            slope *= -beta
            grad += slope
            kinks |= k
        return GradientVector(values=grad, kink_indices=tuple(sorted(kinks)))


def evaluate_loss(
    series: LabeledSeries, spec: LossSpec | CombinedLossSpec
) -> LossEvaluation:
    """One expected matrix per component, which its gradient reuses."""
    results = []
    for component, _ in spec.components:
        exp = expected_confusion(series, component.dist, component.weights)
        score = apply_score(component.score, *exp.entries())
        results.append(LossResult(-score.value, score.degenerate, exp))
    return LossEvaluation(series, spec, tuple(results))


def loss_value(series: LabeledSeries, spec: LossSpec | CombinedLossSpec) -> float:
    """Loss value; a combination weights each component by its coefficient."""
    return evaluate_loss(series, spec).value


def combined_loss(
    series: LabeledSeries, spec: LossSpec | CombinedLossSpec
) -> tuple[float, GradientVector]:
    """Value and analytic gradient (per prediction) of a loss.

    One expected matrix per component yields both: the score and its
    partials at that matrix, chained with the entry slopes.
    """
    ev = evaluate_loss(series, spec)
    return ev.value, ev.gradient()


def loss_gradient(
    series: LabeledSeries, spec: LossSpec | CombinedLossSpec
) -> GradientVector:
    """Analytic gradient of the loss with respect to each prediction."""
    return combined_loss(series, spec)[1]
