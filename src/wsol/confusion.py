"""Hard confusion matrices at a fixed threshold.

A prediction counts as an alarm only when it exceeds the threshold
strictly; a prediction exactly at the threshold is classified negative.
This matters only on a measure-zero set once the threshold is averaged
over a continuous prior, but the hard path pins it down so the oracles
and the closed forms agree on every input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .oracle import batch_weighted_entries
from .series import LabeledSeries
from .weights import WeightSpec


@dataclass(frozen=True)
class ConfusionCounts:
    tn: int
    fp: int
    fn: int
    tp: int

    def __post_init__(self):
        if min(self.tn, self.fp, self.fn, self.tp) < 0:
            raise ValidationError("confusion counts must be non-negative")

    @property
    def n(self) -> int:
        return self.tn + self.fp + self.fn + self.tp


@dataclass(frozen=True)
class WeightedCounts:
    """Confusion matrix with weighted error entries; tn/tp stay integer."""

    tn: int
    wfp: float
    wfn: float
    tp: int


def _check_tau(tau: float) -> float:
    if not (0.0 < tau < 1.0):
        raise ValidationError(f"threshold must lie in (0, 1), got {tau}")
    return float(tau)


def hard_entries(series: LabeledSeries, taus, spec: WeightSpec) -> np.ndarray:
    """The classical and the weighted hard matrix at each threshold, as (4, 2, B).

    Axis 0 is (tn, fp or wfp, fn or wfn, tp), axis 1 is (classical,
    weighted), axis 2 follows ``taus``.  A weight touches only the error
    entries, so one batch_weighted_entries call gives both: every variant
    counts tn and tp alike, and the classical errors are the remaining
    negatives and positives.
    """
    taus = np.array([_check_tau(tau) for tau in taus])
    wc = batch_weighted_entries(series, taus, spec)
    tn, tp = wc[0], wc[3]
    positives = int(np.sum(series.labels))
    classical = (tn, (series.n - positives) - tn, positives - tp, tp)
    return np.stack([classical, wc], axis=1)


def hard_confusion(series: LabeledSeries, tau: float) -> ConfusionCounts:
    """Classical counts at a fixed threshold (alarm iff prediction > tau)."""
    tau = _check_tau(tau)
    alarm = series.predictions > tau
    pos = series.labels == 1
    return ConfusionCounts(
        tn=int(np.sum(~pos & ~alarm)),
        fp=int(np.sum(~pos & alarm)),
        fn=int(np.sum(pos & ~alarm)),
        tp=int(np.sum(pos & alarm)),
    )


def weighted_hard_confusion(
    series: LabeledSeries, tau: float, spec: WeightSpec
) -> WeightedCounts:
    """Counts with the weight function applied per sample to FP and FN sums.

    This is batch_weighted_entries at the single threshold ``tau``.
    """
    tau = _check_tau(tau)
    tn, wfp, wfn, tp = batch_weighted_entries(series, np.array([tau]), spec)
    return WeightedCounts(
        tn=int(tn[0]), wfp=float(wfp[0]), wfn=float(wfn[0]), tp=int(tp[0])
    )
