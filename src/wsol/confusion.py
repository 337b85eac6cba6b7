"""Hard confusion matrices at fixed thresholds.

``hard_entries`` evaluates the classical and the weighted matrix at every
threshold from one ``batch_weighted_entries`` call, and the
single-threshold records below are its columns.

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
from .weights import UnitWeight, WeightSpec


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


def hard_entries(series: LabeledSeries, taus, spec: WeightSpec) -> np.ndarray:
    """The classical and the weighted hard matrix at each threshold, as (4, 2, B).

    Axis 0 is (tn, fp or wfp, fn or wfn, tp), axis 1 is (classical,
    weighted), axis 2 follows ``taus``, each of which must lie in (0, 1).
    A weight touches only the error entries, so one batch_weighted_entries
    call gives both: every variant counts tn and tp alike, and the
    classical errors are the remaining negatives and positives.
    """
    taus = np.asarray(taus, dtype=np.float64)
    # Written so that NaN, which fails every comparison, fails it too.
    outside = ~((taus > 0.0) & (taus < 1.0))
    if outside.any():
        bad = taus[outside][0]
        raise ValidationError(f"threshold must lie in (0, 1), got {bad}")
    out = np.repeat(batch_weighted_entries(series, taus, spec)[:, None], 2, axis=1)
    out[1, 0] = series.neg.sum() - out[0, 0]
    out[2, 0] = series.pos.sum() - out[3, 0]
    return out


def hard_confusion(series: LabeledSeries, tau: float) -> ConfusionCounts:
    """Classical counts at a fixed threshold: the classical column of hard_entries."""
    tn, fp, fn, tp = hard_entries(series, (tau,), UnitWeight())[:, 0, 0]
    return ConfusionCounts(tn=int(tn), fp=int(fp), fn=int(fn), tp=int(tp))


def weighted_hard_confusion(
    series: LabeledSeries, tau: float, spec: WeightSpec
) -> WeightedCounts:
    """Counts with the weight function applied per sample to FP and FN sums:
    the weighted column of hard_entries at the single threshold ``tau``, bit
    for bit, read from one batch_weighted_entries column."""
    # Written so that NaN, which fails every comparison, fails it too.
    if not 0.0 < tau < 1.0:
        raise ValidationError(f"threshold must lie in (0, 1), got {tau}")
    tn, wfp, wfn, tp = batch_weighted_entries(series, (tau,), spec)[:, 0].tolist()
    return WeightedCounts(tn=int(tn), wfp=wfp, wfn=wfn, tp=int(tp))
