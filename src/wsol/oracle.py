"""Ground-truth engines for validating the closed forms.

Two independent routes to the same expectations:

* exact piecewise integration -- every integrand is piecewise constant in
  the threshold, with breakpoints only at prediction values, so
  evaluating the hard weighted matrix at each subinterval midpoint and
  accumulating weight * (F(upper) - F(lower)) is exact up to cdf accuracy;
* Monte Carlo -- averaging the hard weighted matrix over i.i.d. threshold
  draws, with unbiased standard errors for the acceptance bands (4
  standard errors keeps the false-failure rate of a whole suite of such
  checks around 1e-4).

Both evaluate the hard matrix through ``batch_weighted_entries``, and the
only weight methods it calls are the hard-path factors, ``fp_factors``
and ``fn_factors``.  Neither route touches a closed form, a derivative,
or the chain algebra behind them, which is the point.
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
_CHUNK = 1 << 15
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
    return np.stack(batch_weighted_entries(series, mids, spec)), mass[keep]


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(tn, wfp, wfn, tp) of the hard weighted matrix, vectorized over taus.

    Column b is the matrix at threshold taus[b]: a prediction raises an
    alarm when it exceeds the threshold strictly.  The weighted entries
    sum the spec's hard-path factors over the false alarms and misses;
    the counts are exact integers held as floats.  Thresholds are taken
    in blocks of at most _BATCH_ELEMENTS matrix elements.
    """
    p = series.predictions
    pos = series.labels == 1
    taus = np.asarray(taus, dtype=np.float64)
    fp_w = spec.fp_factors(series)[~pos]
    out = np.empty((4, taus.size))
    step = max(1, _BATCH_ELEMENTS // series.n)
    for lo in range(0, taus.size, step):
        cols = slice(lo, lo + step)
        alarm = p[:, None] > taus[None, cols]
        false_alarm = alarm[~pos]
        miss = ~alarm[pos]
        fn_w = np.broadcast_to(spec.fn_factors(series, alarm)[pos], miss.shape)
        out[0, cols] = false_alarm.shape[0] - false_alarm.sum(axis=0)
        out[1, cols] = np.einsum("i,ib->b", fp_w, false_alarm)
        out[2, cols] = np.einsum("ib,ib->b", fn_w, miss)
        out[3, cols] = miss.shape[0] - miss.sum(axis=0)
    return out[0], out[1], out[2], out[3]


@dataclass(frozen=True)
class ScoreEstimate:
    mean: float
    stderr: float
    draws: int
    degenerate_draws: int = 0


def mc_expected_confusion(
    series: LabeledSeries,
    dist: ThresholdDistribution,
    spec: WeightSpec,
    samples: int,
    seed: int,
) -> tuple[ExpectedConfusion, ExpectedConfusion]:
    """Monte Carlo estimate of the expected matrix with per-entry standard errors."""
    if samples < MC_MIN_SAMPLES:
        raise ValidationError(
            f"Monte Carlo oracle needs at least {MC_MIN_SAMPLES} samples"
        )
    rng = np.random.default_rng(seed)
    sums = np.zeros(4)
    sq_sums = np.zeros(4)
    done = 0
    while done < samples:
        b = min(_CHUNK, samples - done)
        taus = np.asarray(dist.sample(rng, b))
        entries = np.stack(batch_weighted_entries(series, taus, spec))
        sums += entries.sum(axis=1)
        sq_sums += (entries**2).sum(axis=1)
        done += b
    mean = sums / samples
    var = np.maximum(sq_sums / samples - mean**2, 0.0) * samples / (samples - 1)
    se = np.sqrt(var / samples)
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
    if samples < MC_MIN_SAMPLES:
        raise ValidationError(
            f"Monte Carlo oracle needs at least {MC_MIN_SAMPLES} samples"
        )
    rng = np.random.default_rng(seed)
    total = 0.0
    sq_total = 0.0
    degenerate = 0
    done = 0
    while done < samples:
        b = min(_CHUNK, samples - done)
        taus = np.asarray(dist.sample(rng, b))
        tn, wfp, wfn, tp = batch_weighted_entries(series, taus, spec)
        vals, bad = score_array(kind, tn, wfp, wfn, tp)
        total += vals.sum()
        sq_total += (vals**2).sum()
        degenerate += int(bad.sum())
        done += b
    mean = total / samples
    var = max(sq_total / samples - mean**2, 0.0) * samples / (samples - 1)
    return ScoreEstimate(
        mean=mean,
        stderr=float(np.sqrt(var / samples)),
        draws=samples,
        degenerate_draws=degenerate,
    )


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
    from .loss import loss_value  # deferred: loss builds on this module

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
