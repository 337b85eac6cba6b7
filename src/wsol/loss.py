"""Score-oriented losses: negated scores of expected weighted matrices.

The loss of a batch is -s(expected weighted confusion matrix).  Because
the expectation replaces indicators with the prior cdf, the loss is
differentiable in the predictions; the gradient here is assembled by the
chain rule through the score partials and the closed-form entry
derivatives.  Composing with a model's own Jacobian is the trainer's job.
``evaluate_loss`` computes each component's expected matrix once; the
value and, if asked for, the gradient are both read off that evaluation.

At value-weight kinks (a window prediction exactly equal to the current
one, or a tie inside the window's chain) a one-sided derivative is
returned and the result is flagged non-smooth rather than silently
picking a subgradient.

``finite_diff_gradient`` takes central differences of ``loss_value``,
the check the analytic gradient is held to.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, check_convex
from .expected import ExpectedConfusion, expected_confusion
from .oracle import exact_expected_score, mc_expected_score
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
    """One loss on one series: its value, the expected matrix it scores,
    and the closed-form terms a gradient at that matrix reuses."""

    value: float
    degenerate: bool
    expected: ExpectedConfusion = field(repr=False)
    terms: object = field(repr=False)


@dataclass(frozen=True)
class LossEvaluation:
    """A loss evaluated on one series: one result per component.

    The value needs only the expected matrices; the gradient, taken
    later or not at all, reuses them and their closed-form terms.
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
        neg = (series.labels == 0).astype(np.float64)
        pos = series.labels.astype(np.float64)
        grad = np.zeros(series.n)
        kinks: set[int] = set()
        for (spec, beta), r in zip(self.spec.components, self.results):
            # The score partials at the result's expected matrix chained with
            # the entry derivatives; a value weight contributes cross terms,
            # since a prediction enters the windows of up to T later positives.
            s_tn, s_wfp, s_wfn, s_tp = score_partials(spec.score, *r.expected.entries())
            dens = np.asarray(spec.dist.pdf(series.predictions), dtype=np.float64)
            d_wfp, d_wfn, k = spec.weights.error_derivatives(
                series, spec.dist, dens, r.terms
            )
            d_tn = -neg * dens
            d_tp = pos * dens
            grad += beta * -(s_tn * d_tn + s_wfp * d_wfp + s_wfn * d_wfn + s_tp * d_tp)
            kinks |= k
        return GradientVector(values=grad, kink_indices=tuple(sorted(kinks)))


def evaluate_loss(
    series: LabeledSeries, spec: LossSpec | CombinedLossSpec
) -> LossEvaluation:
    """One expected matrix per component, with the terms its gradient reuses."""
    results = []
    for component, _ in spec.components:
        terms = component.weights.closed_form_terms(series, component.dist)
        exp = expected_confusion(series, component.dist, component.weights, terms)
        score = apply_score(component.score, *exp.entries())
        results.append(LossResult(-score.value, score.degenerate, exp, terms))
    return LossEvaluation(series, spec, tuple(results))


def loss_value(series: LabeledSeries, spec: LossSpec | CombinedLossSpec) -> float:
    """Loss value; a combination weights each component by its coefficient."""
    return evaluate_loss(series, spec).value


def combined_loss(
    series: LabeledSeries, spec: LossSpec | CombinedLossSpec
) -> tuple[float, GradientVector]:
    """Value and analytic gradient (per prediction) of a loss.

    One expected matrix per component yields both: the score and its
    partials at that matrix, chained with the entry derivatives.
    """
    ev = evaluate_loss(series, spec)
    return ev.value, ev.gradient()


def loss_gradient(
    series: LabeledSeries, spec: LossSpec | CombinedLossSpec
) -> GradientVector:
    """Analytic gradient of the loss with respect to each prediction."""
    return combined_loss(series, spec)[1]


@dataclass(frozen=True)
class FiniteDiffGradient:
    """Central-difference loss gradient; flagged entries hit the (0,1) clamp."""

    values: np.ndarray
    clamped_indices: tuple[int, ...] = ()


def finite_diff_gradient(series: LabeledSeries, spec, step: float = 1e-6):
    """Central differences of the loss value with respect to each prediction.

    Entries whose two-sided stencil would leave (0, 1) are evaluated with
    the stencil shifted inward and flagged.
    """
    if not (1e-8 <= step <= 1e-3):
        raise ValidationError("finite-difference step must lie in [1e-8, 1e-3]")
    p0 = series.predictions
    values = np.empty(series.n)
    clamped = []
    for i in range(series.n):
        lo = p0[i] - step
        hi = p0[i] + step
        if lo <= 0.0 or hi >= 1.0:
            clamped.append(i)
            lo = max(lo, p0[i] / 2)
            hi = min(hi, (1.0 + p0[i]) / 2)
        p_hi = p0.copy()
        p_hi[i] = hi
        p_lo = p0.copy()
        p_lo[i] = lo
        values[i] = (
            loss_value(series.with_predictions(p_hi), spec)
            - loss_value(series.with_predictions(p_lo), spec)
        ) / (hi - lo)
    return FiniteDiffGradient(values=values, clamped_indices=tuple(clamped))


@dataclass(frozen=True)
class ScoreGap:
    """Both sides of the loss/score alignment and their difference.

    ``score_of_expected`` is s(E[wCM]) (the negated loss);
    ``expected_score`` is E[s(wCM)] from an oracle.  For linear scores
    the gap vanishes; for nonlinear scores it quantifies the remainder
    the loss construction accepts.
    """

    score_of_expected: float
    expected_score: float
    gap: float
    stderr: float = 0.0


def expected_score_gap(
    series: LabeledSeries,
    spec: LossSpec,
    mc_samples: int | None = None,
    seed: int = 0,
) -> ScoreGap:
    """Compare s(E[wCM]) with E[s(wCM)].

    With ``mc_samples`` unset the right-hand side comes from the exact
    piecewise oracle (stderr 0); otherwise from Monte Carlo with its
    standard error.
    """
    lhs = -loss_value(series, spec)
    if mc_samples is None:
        rhs = exact_expected_score(series, spec.dist, spec.weights, spec.score)
        se = 0.0
    else:
        est = mc_expected_score(
            series, spec.dist, spec.weights, spec.score, mc_samples, seed
        )
        rhs = est.mean
        se = est.stderr
    return ScoreGap(
        score_of_expected=lhs, expected_score=rhs, gap=rhs - lhs, stderr=se
    )
