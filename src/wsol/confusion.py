"""Hard confusion matrices at fixed thresholds: the one reader of the hard matrix.

``batch_weighted_entries`` evaluates the hard weighted matrix at a batch
of thresholds.  ``hard_entries`` reads the classical and the weighted
matrix at every threshold from one such call, the single-threshold
records below are its columns, and ``sweep_report`` scores it over the
``sweep_thresholds`` grid for ``wsol eval`` and ``wsol train``.  The
oracles integrate this same matrix over the threshold prior; nothing here
touches a closed form.

A prediction counts as an alarm only when it exceeds the threshold
strictly; a prediction exactly at the threshold is classified negative.
This matters only on a measure-zero set once the threshold is averaged
over a continuous prior, but the hard path pins it down so the oracles
and the closed forms agree on every input.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .scores import score_table
from .series import LabeledSeries
from .weights import UnitWeight, WeightSpec

# Matrix elements (samples x thresholds) per block of batch_weighted_entries:
# small enough that the block's temporaries stay in cache.
_BATCH_ELEMENTS = 1 << 16

# The sweep grid's step, unless one is given: ``wsol eval``'s default, and
# the step of every sweep ``wsol train`` and the paired comparison report.
DEFAULT_SWEEP_STEP = 0.01


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


def batch_weighted_entries(
    series: LabeledSeries, taus: np.ndarray, spec: WeightSpec
) -> np.ndarray:
    """The hard weighted matrix at each threshold, as (4, B) rows (tn, wfp, wfn, tp).

    Column b is the matrix at threshold taus[b]: a prediction raises an
    alarm when it exceeds the threshold strictly.  The weighted entries
    sum the spec's hard-path factors over the false alarms and misses;
    the counts are exact integers held as floats.  Thresholds are taken
    in blocks of at most _BATCH_ELEMENTS matrix elements, each alarm
    matrix cast to floats once.  Every entry is a vector-matrix product
    with a float label mask: the negatives (tn), the FP factors, which are
    zero on positives (wfp), and the positives, with the alarms (tp) and
    with the FN factors zeroed where an alarm is raised (wfn).
    """
    p = series.predictions
    neg, pos = series.neg, series.pos
    n_neg = neg.sum()
    fp = spec.fp_factors(series)
    taus = np.asarray(taus, dtype=np.float64)
    out = np.empty((4, taus.size))
    step = max(1, _BATCH_ELEMENTS // series.n)
    for lo in range(0, taus.size, step):
        cols = slice(lo, lo + step)
        alarm = p[:, None] > taus[None, cols]
        raised = alarm.astype(np.float64)
        missed = spec.fn_factors(series, alarm) * (1.0 - raised)
        out[0, cols] = n_neg - neg @ raised
        out[1, cols] = fp @ raised
        out[2, cols] = pos @ missed
        out[3, cols] = pos @ raised
    return out


def hard_entries(series: LabeledSeries, taus, spec: WeightSpec) -> np.ndarray:
    """The classical and the weighted hard matrix at each threshold, as (4, 2, B).

    Axis 0 is (tn, fp or wfp, fn or wfn, tp), axis 1 is (classical,
    weighted), axis 2 follows ``taus``, a 1-d grid (possibly empty) of
    numbers in (0, 1); any other shape is a ValidationError.  A weight
    touches only the error entries, so one batch_weighted_entries call
    gives both: every variant counts tn and tp alike, and the classical
    errors are the remaining negatives and positives.
    """
    taus = np.asarray(taus, dtype=np.float64)
    # A scalar has no columns, and the window factors of a 2-d grid would
    # run their lags over its broadcast axis.
    if taus.ndim != 1:
        raise ValidationError(f"thresholds must be a 1-d grid, got shape {taus.shape}")
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
    for bit, read from one batch_weighted_entries column.  ``tau`` is one
    real number: a bool, a string or an array is a ValidationError."""
    if isinstance(tau, bool) or not isinstance(tau, numbers.Real):
        raise ValidationError(f"threshold must be a real number, got {tau!r}")
    # Written so that NaN, which fails every comparison, fails it too.
    if not 0.0 < tau < 1.0:
        raise ValidationError(f"threshold must lie in (0, 1), got {tau}")
    tn, wfp, wfn, tp = batch_weighted_entries(series, (tau,), spec)[:, 0].tolist()
    return WeightedCounts(tn=int(tn), wfp=wfp, wfn=wfn, tp=int(tp))


def sweep_thresholds(step: float = DEFAULT_SWEEP_STEP) -> np.ndarray:
    """The sweep grid: step, 2 * step, ... rounded to 10 decimals, kept below 1.

    Rounding can carry the last point of ``np.arange`` up to 1.0 (step 1/3
    does), which is not a threshold, so it is dropped.
    """
    grid = np.round(np.arange(step, 1.0, step), 10)
    return grid[grid < 1.0]


def sweep_report(
    series: LabeledSeries, thresholds: np.ndarray, weight_spec: WeightSpec
) -> dict:
    """Hard and weighted matrices with every score at each threshold, and the best taus.

    One hard_entries call gives both matrices at every threshold, and one
    score_table call scores them; the rows are read off those arrays
    column by column, with counts as ints.  The best tau of a score is its
    first maximum, so the grid must be non-empty as well as 1-d.
    """
    entries = hard_entries(series, thresholds, weight_spec)
    taus = np.asarray(thresholds, dtype=np.float64).tolist()
    if not taus:
        raise ValidationError("a sweep needs at least one threshold")
    tn, fp, fn, tp = entries[:, 0].astype(np.int64).tolist()
    _, wfp, wfn, _ = entries[:, 1].tolist()
    table = score_table(*entries)
    # Each threshold's scores by name, of the classical and the weighted matrix.
    scores, weighted = (
        [dict(zip(table, vals)) for vals in zip(*(v[k] for v in table.values()))]
        for k in (0, 1)
    )
    rows = [
        {
            "tau": taus[b],
            "cm": {"tn": tn[b], "fp": fp[b], "fn": fn[b], "tp": tp[b]},
            "wcm": {"tn": tn[b], "wfp": wfp[b], "wfn": wfn[b], "tp": tp[b]},
            "scores": scores[b],
            "weighted_scores": weighted[b],
        }
        for b in range(len(taus))
    ]
    best = {}
    for name, (values, wvalues) in table.items():
        idx, widx = int(np.argmax(values)), int(np.argmax(wvalues))
        best[name] = {
            "tau": taus[idx],
            "value": values[idx],
            "weighted_tau": taus[widx],
            "weighted_value": wvalues[widx],
        }
    return {"sweep": rows, "best": best}
