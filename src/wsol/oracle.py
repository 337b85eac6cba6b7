"""Ground-truth engines for validating the closed forms.

Two independent routes to the same expectations:

* exact piecewise integration -- every integrand is piecewise constant in
  the threshold, with breakpoints only at prediction values, so
  evaluating the hard weighted matrix at each subinterval midpoint and
  accumulating weight * (F(upper) - F(lower)) is exact up to cdf accuracy;
* Monte Carlo -- averaging the hard weighted matrix over i.i.d. threshold
  draws, with unbiased standard errors for the acceptance bands (4
  standard errors keeps the false-failure rate of a whole suite of such
  checks around 1e-4).  The matrix changes only where the threshold
  crosses a prediction value, so the draws are sorted once (the oracle
  holds them, 8 bytes each), counted per cell between consecutive
  distinct predictions, and the matrix is evaluated once per occupied
  cell, at the cell's smallest draw.  That is the per-draw average
  exactly, up to summation order; it never evaluates at a point chosen
  from the predictions, as the exact route's midpoints are.

Both evaluate the hard matrix through ``batch_weighted_entries``, which
returns it as one (4, B) array over B thresholds; the only weight
methods it calls are the hard-path factors, ``fp_factors`` and
``fn_factors``.  Neither route touches a closed form, a derivative,
or the chain algebra behind them, which is the point: this module takes
nothing from ``wsol.loss`` and only the ``ExpectedConfusion`` record from
``wsol.expected``.  The gradient's own check, central differences of the
loss value, lives beside that value in ``wsol.loss``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .expected import ExpectedConfusion
from .scores import ScoreKind, score_array
from .series import LabeledSeries
from .threshold import ThresholdDistribution
from .weights import WeightSpec

# Fewest Monte Carlo draws an estimate may rest on.
MC_MIN_SAMPLES = 1000
# Draws per sampling chunk.  It bounds the sampler's temporaries only: one
# rng.random stream feeds every chunk, so the draws do not depend on it.
_CHUNK = 1 << 13
# Matrix elements (samples x thresholds) per block of batch_weighted_entries:
# small enough that the block's temporaries stay in cache.
_BATCH_ELEMENTS = 1 << 16


def _breakpoints(series: LabeledSeries, dist: ThresholdDistribution) -> np.ndarray:
    a, b = dist.support
    p = series.predictions
    inner = np.unique(p[(p > a) & (p < b)])
    return np.concatenate([[a], inner, [b]])


def _midpoint_entries(
    series: LabeledSeries, dist: ThresholdDistribution, spec: WeightSpec
):
    """Hard-matrix entries (4, m) at the midpoints of the m subintervals.

    Only subintervals of positive prior mass are kept; their masses are
    returned alongside.
    """
    bps = _breakpoints(series, dist)
    mass = np.diff(dist.cdf(bps))
    keep = mass > 0.0
    mids = (0.5 * (bps[:-1] + bps[1:]))[keep]
    return batch_weighted_entries(series, mids, spec), mass[keep]


def exact_expected_confusion(
    series: LabeledSeries, dist: ThresholdDistribution, spec: WeightSpec
) -> ExpectedConfusion:
    """Integrate the hard weighted matrix over the threshold prior exactly.

    Between consecutive prediction values every indicator in the matrix
    (the per-sample alarm and every window alarm) is constant, so the
    integrand is constant on each open subinterval and the midpoint value
    is its exact value there.  Duplicated prediction values collapse into
    a single breakpoint and cannot change the sum.
    """
    entries, mass = _midpoint_entries(series, dist, spec)
    acc = entries @ mass
    return ExpectedConfusion(e_tn=acc[0], e_wfp=acc[1], e_wfn=acc[2], e_tp=acc[3])


def exact_expected_score(
    series: LabeledSeries,
    dist: ThresholdDistribution,
    spec: WeightSpec,
    kind: ScoreKind,
) -> float:
    """E[s(wCM)] by the same piecewise integration; degenerate slabs score 0."""
    entries, mass = _midpoint_entries(series, dist, spec)
    return float(score_array(kind, *entries)[0] @ mass)


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
    with a float label mask: the negatives (tn), the FP factors zeroed on
    positives (wfp), and the positives, with the alarms (tp) and with the
    FN factors zeroed where an alarm is raised (wfn).
    """
    p = series.predictions
    neg, pos = series.neg, series.pos
    n_neg = neg.sum()
    fp_neg = spec.fp_factors(series) * neg
    taus = np.asarray(taus, dtype=np.float64)
    out = np.empty((4, taus.size))
    step = max(1, _BATCH_ELEMENTS // series.n)
    for lo in range(0, taus.size, step):
        cols = slice(lo, lo + step)
        alarm = p[:, None] > taus[None, cols]
        raised = alarm.astype(np.float64)
        missed = spec.fn_factors(series, alarm) * (1.0 - raised)
        out[0, cols] = n_neg - neg @ raised
        out[1, cols] = fp_neg @ raised
        out[2, cols] = pos @ missed
        out[3, cols] = pos @ raised
    return out


@dataclass(frozen=True)
class ScoreEstimate:
    mean: float
    stderr: float
    draws: int
    degenerate_draws: int = 0


def _mc_cells(
    series: LabeledSeries,
    dist: ThresholdDistribution,
    spec: WeightSpec,
    samples: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Hard-matrix entries (4, m) of the m occupied threshold cells, with draw counts.

    The distinct prediction values cut the line into at most n + 1 cells,
    and every threshold in one cell raises the same alarms.  The hard
    matrix depends on the threshold only through those alarms (the FP
    factors do not see it, the FN factors see only the alarm matrix), so
    every draw has exactly the matrix of any other draw in its cell.  The
    draws are sorted once, each cell's count and smallest draw are read
    off one searchsorted, and the matrix is evaluated once per occupied
    cell, at that draw.
    """
    if samples < MC_MIN_SAMPLES:
        raise ValidationError(
            f"Monte Carlo oracle needs at least {MC_MIN_SAMPLES} samples"
        )
    rng = np.random.default_rng(seed)
    taus = np.empty(samples)
    for lo in range(0, samples, _CHUNK):
        taus[lo : lo + _CHUNK] = dist.sample(rng, min(_CHUNK, samples - lo))
    taus.sort()
    # Cell k holds the draws in [edges[k - 1], edges[k]): side="left" puts
    # a draw equal to a prediction in the cell above it, where that
    # prediction raises no alarm (alarms need p > tau).
    edges = np.unique(series.predictions)
    first = np.concatenate(([0], np.searchsorted(taus, edges, side="left")))
    counts = np.diff(first, append=samples)
    occupied = counts > 0
    entries = batch_weighted_entries(series, taus[first[occupied]], spec)
    return entries, counts[occupied].astype(np.float64)


def _mean_and_stderr(values: np.ndarray, counts: np.ndarray):
    """Sample mean and its standard error of values drawn ``counts`` times each."""
    samples = counts.sum()
    mean = values @ counts / samples
    var = np.maximum((values**2) @ counts / samples - mean**2, 0.0)
    var = var * samples / (samples - 1)
    return mean, np.sqrt(var / samples)


def mc_expected_confusion(
    series: LabeledSeries,
    dist: ThresholdDistribution,
    spec: WeightSpec,
    samples: int,
    seed: int,
) -> tuple[ExpectedConfusion, ExpectedConfusion]:
    """Monte Carlo estimate of the expected matrix with per-entry standard errors."""
    mean, se = _mean_and_stderr(*_mc_cells(series, dist, spec, samples, seed))
    return (
        ExpectedConfusion(e_tn=mean[0], e_wfp=mean[1], e_wfn=mean[2], e_tp=mean[3]),
        ExpectedConfusion(e_tn=se[0], e_wfp=se[1], e_wfn=se[2], e_tp=se[3]),
    )


def mc_expected_score(
    series: LabeledSeries,
    dist: ThresholdDistribution,
    spec: WeightSpec,
    kind: ScoreKind,
    samples: int,
    seed: int,
) -> ScoreEstimate:
    """Monte Carlo estimate of E[s(wCM)]; degenerate draws score 0 and are counted."""
    entries, counts = _mc_cells(series, dist, spec, samples, seed)
    vals, bad = score_array(kind, *entries)
    mean, se = _mean_and_stderr(vals, counts)
    return ScoreEstimate(
        mean=float(mean),
        stderr=float(se),
        draws=samples,
        degenerate_draws=int(counts[bad].sum()),
    )
