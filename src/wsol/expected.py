"""Closed-form expected confusion entries under the threshold prior.

Averaging the hard matrix over the threshold replaces every indicator
with the prior cdf F.  The correct entries are the same for every weight
variant and are assembled here; the weighted error entries come from the
variant's own ``expected_errors``.  For the value weights the
false-negative entry couples each positive sample to its window of past
predictions: the dot-product form needs only pairwise cdf differences,
while the max form needs the power-interval decomposition of the window,
the ranges of thresholds on which each past prediction is the nearest
alarm, linked into a chain of strictly increasing precursors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .series import LabeledSeries
from .threshold import ThresholdDistribution
from .weights import WeightSpec, _chain_members


@dataclass(frozen=True)
class ExpectedConfusion:
    e_tn: float
    e_wfp: float
    e_wfn: float
    e_tp: float

    def __post_init__(self):
        for name in ("e_tn", "e_wfp", "e_wfn", "e_tp"):
            v = getattr(self, name)
            if v < -1e-9:
                raise ValidationError(f"expected entry {name} is negative: {v}")
            if v < 0.0:
                object.__setattr__(self, name, 0.0)

    def entries(self) -> tuple[float, float, float, float]:
        """(tn, wfp, wfn, tp) order, matching the score functions."""
        return (self.e_tn, self.e_wfp, self.e_wfn, self.e_tp)

    def to_dict(self) -> dict:
        return {
            "e_tn": self.e_tn,
            "e_wfp": self.e_wfp,
            "e_wfn": self.e_wfn,
            "e_tp": self.e_tp,
        }


@dataclass(frozen=True)
class PowerInterval:
    """Threshold range on which the prediction at `lag` is the nearest alarm.

    `precursor` is the lag whose prediction forms the lower endpoint; 0
    stands for the lower support bound (the first interval has no
    predecessor).
    """

    lag: int
    lower: float
    upper: float
    precursor: int


@dataclass(frozen=True)
class PowerIntervalDecomposition:
    intervals: tuple[PowerInterval, ...]
    chain: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.chain)


def power_intervals(
    past, a: float = 0.0, b: float = 1.0
) -> PowerIntervalDecomposition:
    """Decompose a window of past predictions (nearest lag first).

    Every past prediction must lie inside the open support (a, b); the
    closed forms below reject windows that violate this rather than guess
    how clamped predictions should enter the chain.
    """
    past = np.asarray(past, dtype=np.float64)
    if past.ndim != 1 or past.size == 0:
        raise ValidationError("past window must be a non-empty 1-d sequence")
    if np.any((past <= a) | (past >= b)):
        raise ValidationError(
            "past prediction outside the open support "
            f"({a}, {b}); the threshold prior must give every window "
            "prediction positive density"
        )
    # The chain marking of the closed form, read off a one-row window; the
    # current prediction takes no part in it.
    member = _chain_members(np.append(past[::-1], b), a, past.size)[0][-1]
    chain = tuple(int(j) + 1 for j in np.flatnonzero(member))
    intervals = []
    lower, precursor = float(a), 0
    for lag in chain:
        upper = float(past[lag - 1])
        intervals.append(
            PowerInterval(lag=lag, lower=lower, upper=upper, precursor=precursor)
        )
        lower, precursor = upper, lag
    return PowerIntervalDecomposition(tuple(intervals), chain)


def _tp_tn(labels: np.ndarray, cdf: np.ndarray) -> tuple[float, float]:
    return float(np.sum(labels * cdf)), float(np.sum((1 - labels) * (1.0 - cdf)))


def expected_tp_tn(
    series: LabeledSeries, dist: ThresholdDistribution
) -> tuple[float, float]:
    """(E[TP], E[TN]): correct entries are untouched by any weight variant."""
    return _tp_tn(series.labels, dist.cdf(series.predictions))


def _expected_errors(
    series: LabeledSeries, dist: ThresholdDistribution, spec: WeightSpec
) -> tuple[float, float]:
    terms = spec.closed_form_terms(series, dist)
    return spec.expected_errors(series, dist, dist.cdf(series.predictions), terms)


def expected_wfp(
    series: LabeledSeries, dist: ThresholdDistribution, spec: WeightSpec
) -> float:
    """Expected weighted false-positive entry."""
    return _expected_errors(series, dist, spec)[0]


def expected_wfn(
    series: LabeledSeries, dist: ThresholdDistribution, spec: WeightSpec
) -> float:
    """Expected weighted false-negative entry."""
    return _expected_errors(series, dist, spec)[1]


def expected_confusion(
    series: LabeledSeries, dist: ThresholdDistribution, spec: WeightSpec, terms=None
) -> ExpectedConfusion:
    """Assemble all four expected entries from one evaluation of the cdf.

    ``terms`` is ``spec.closed_form_terms(series, dist)``, built here when
    the caller has not built it already.
    """
    if terms is None:
        terms = spec.closed_form_terms(series, dist)
    cdf = dist.cdf(series.predictions)
    e_tp, e_tn = _tp_tn(series.labels, cdf)
    e_wfp, e_wfn = spec.expected_errors(series, dist, cdf, terms)
    return ExpectedConfusion(e_tn=e_tn, e_wfp=e_wfp, e_wfn=e_wfn, e_tp=e_tp)
