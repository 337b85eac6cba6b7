"""Weight functions applied to the false-positive and false-negative sums.

Five variants: unit (classical matrix), cost (fixed per-error-type cost),
cross-entropy (prediction-dependent), and two value variants that reward
errors adjacent in time to events or alarms through a window of length T.
The value variants read a series' index order as its time order.

Each variant's class owns the decisions that depend on it, in four methods:

* ``fp_factors`` -- the weight of each sample as a false positive, which
  never depends on the threshold, and is 0 on positives: a positive is
  never a false positive;
* ``fn_factors`` -- the weight of each sample as a false negative, given
  the (n, B) alarm matrix of B thresholds;
* ``expected_errors`` -- the closed-form (E[wFP], E[wFN]) under a
  threshold prior, from the series and the prior's cdf;
* ``error_slopes`` -- their derivatives over the prior density at each
  prediction, with the indices where only one-sided ones exist.

The two factor methods are the hard path the oracles integrate, and the
only definition of each weight in the package; the other two are the
closed forms those oracles check.  ``eval_weight`` reads one sample's
weight off the factors.

A value weight's expected miss needs the cdf alone: lag j of positive i
alarms on the thresholds between p_i and p_{i-j}, a prior mass of
(F(p_{i-j}) - F(p_i))+, and under the max form only the nearest alarm
counts, which the running maxima of F over the window settle.  The slopes
take the lags one row at a time: every lag with its own omega for the
dot-product form; for the max form the window's chain, the lags whose
predictions strictly exceed every nearer one, whose telescoped
coefficients are scanned from the farthest lag.  A sample joins the
chains of a run of the samples after it, so one count per sample, its
lead, holds every chain.  Only a gradient builds them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedCombinationError, ValidationError, check_finite
from .series import LabeledSeries


# Largest cost or cross-entropy parameter accepted.  The weighted error
# entries scale with it.  Past about 1e108 for the weight times the series
# length, the score partials (a complex step of 1e-200) lose digits; near
# 1e154 the HSS denominator, a product of two entry sums, overflows.  A
# score reads only the ratios of the weights to each other and to the unit
# correct entries, and 1e6 keeps every entry, score and partial far inside
# the float range on any series that fits in memory.
MAX_WEIGHT_PARAMETER = 1e6


class WeightSpec:
    """Base for the weight-function variants: one weight, defined by its
    hard-path factors, and closed forms whose derivatives all share the
    prior density as a factor, which the loss gradient applies."""

    name = "abstract"

    def check_prior(self, dist) -> None:
        """Raise when the closed forms do not cover this threshold prior."""

    def fp_factors(self, series: LabeledSeries) -> np.ndarray:
        """Weight of each sample as a false positive, shape (n,); 0 on positives."""
        raise NotImplementedError

    def fn_factors(self, series: LabeledSeries, alarm: np.ndarray) -> np.ndarray:
        """Weight of each sample as a false negative at each threshold.

        ``alarm`` is the (n, B) matrix of 1{prediction > tau_b}; the result
        broadcasts against it.
        """
        raise NotImplementedError

    def expected_errors(
        self, series: LabeledSeries, dist, cdf: np.ndarray
    ) -> tuple[float, float]:
        """(E[wFP], E[wFN]) under ``dist``; ``cdf`` is its cdf at each prediction."""
        raise NotImplementedError

    def error_slopes(
        self, series: LabeledSeries, dist
    ) -> tuple[np.ndarray, np.ndarray, set[int]]:
        """(fp_slope, fn_slope, kink indices), one slope per prediction.

        dE[wFP]/dp_i = fp_slope_i * f(p_i) for the density f of ``dist``,
        and likewise for wFN.  Where the weight does not depend on the
        predictions, a slope is the drop of the hard entry as the threshold
        rises through p_i.  At a kink index only a one-sided derivative
        exists.
        """
        raise NotImplementedError


class _ErrorTypeWeight(WeightSpec):
    # c01 on every false positive, c10 on every false negative.  The
    # expected entries scale the unit sums after summing, so a cost weight
    # gives exactly c01 * E[FP] and c10 * E[FN].

    def fp_factors(self, series):
        return self.c01 * series.neg

    def fn_factors(self, series, alarm):
        return np.full((series.n, 1), float(self.c10))

    def expected_errors(self, series, dist, cdf):
        return (
            self.c01 * float(series.neg @ cdf),
            self.c10 * float(series.pos @ (1.0 - cdf)),
        )

    def error_slopes(self, series, dist):
        return self.fp_factors(series), -self.c10 * series.pos, set()


@dataclass(frozen=True)
class UnitWeight(_ErrorTypeWeight):
    name = "unit"
    c01 = 1.0
    c10 = 1.0


@dataclass(frozen=True)
class CostWeight(_ErrorTypeWeight):
    """Cost c01 on false positives, c10 on false negatives."""

    c01: float
    c10: float
    name = "cost"

    def __post_init__(self):
        for name in ("c01", "c10"):
            object.__setattr__(self, name, check_finite(name, getattr(self, name)))
        if self.c01 < 0 or self.c10 < 0:
            raise ValidationError("costs must be non-negative")
        if max(self.c01, self.c10) > MAX_WEIGHT_PARAMETER:
            raise ValidationError(f"costs must be at most {MAX_WEIGHT_PARAMETER:g}")


@dataclass(frozen=True)
class CrossEntropyWeight(WeightSpec):
    """Prediction-dependent weight whose threshold average yields weighted CE."""

    omega0: float
    omega1: float
    name = "cross_entropy"

    def __post_init__(self):
        for name in ("omega0", "omega1"):
            object.__setattr__(self, name, check_finite(name, getattr(self, name)))
        if self.omega0 <= 0 or self.omega1 <= 0:
            raise ValidationError("cross-entropy weight parameters must be positive")
        if max(self.omega0, self.omega1) > MAX_WEIGHT_PARAMETER:
            raise ValidationError(
                "cross-entropy weight parameters must be at most "
                f"{MAX_WEIGHT_PARAMETER:g}"
            )

    def check_prior(self, dist) -> None:
        if dist.kind != "uniform" or dist.support != (0.0, 1.0):
            raise UnsupportedCombinationError(
                "cross-entropy weights have a closed-form expectation only under "
                "the uniform prior on [0, 1]"
            )

    def fp_factors(self, series):
        p = series.predictions
        return (-self.omega0 * np.log1p(-p) / p) * series.neg

    def fn_factors(self, series, alarm):
        p = series.predictions
        return (-self.omega1 * np.log(p) / (1.0 - p))[:, None]

    def expected_errors(self, series, dist, cdf):
        self.check_prior(dist)
        p = series.predictions
        return (
            float(-self.omega0 * (series.neg @ np.log1p(-p))),
            float(-self.omega1 * (series.pos @ np.log(p))),
        )

    def error_slopes(self, series, dist):
        # The derivatives themselves: the one prior allowed has f = 1.
        p, neg, pos = series.predictions, series.neg, series.pos
        return self.omega0 * neg / (1.0 - p), -self.omega1 * pos / p, set()


def _check_omega(omega) -> tuple[float, ...]:
    if isinstance(omega, str):
        raise ValidationError(f"omega must be a list, got {omega!r}")
    try:
        omega = tuple(check_finite("omega entries", w) for w in omega)
    except TypeError:
        raise ValidationError(f"omega must be a list, got {omega!r}") from None
    if len(omega) < 1:
        raise ValidationError("omega must have at least one entry")
    if any(w < 0 for w in omega):
        raise ValidationError("omega entries must be non-negative")
    if any(omega[i] < omega[i + 1] for i in range(len(omega) - 1)):
        raise ValidationError("omega must be non-increasing")
    return omega


def _require_support(series: LabeledSeries, dist) -> None:
    # The value closed forms need every prediction inside the open support
    # of the prior, where it has positive density.
    a, b = dist.support
    if a > 0.0 or b < 1.0:
        p = series.predictions
        if np.any((p <= a) | (p >= b)):
            raise ValidationError(
                "value weights need every prediction inside the open support "
                f"({a}, {b}) of the threshold prior"
            )


def _chain_members(
    p: np.ndarray, a: float, window: int
) -> tuple[np.ndarray, np.ndarray]:
    """Chain marking of the past ``window`` lags of every sample, window < p.size.

    Sample k is in the chain of sample k + j, at lag j, when its prediction
    exceeds the lower support bound ``a`` and every prediction between them
    strictly: the strict running maxima, which are exactly the lags whose
    power interval is non-empty (of equal predictions the nearer lag keeps
    the interval).  Nearer lags only raise that maximum, so k is in the
    chains of exactly samples k + 1 .. k + ``lead[k]``, and ``lead`` holds
    every mark.  ``tied[i]`` flags a lag of sample i equal to its running
    maximum, a chain-membership boundary.  Lags before the record start are
    absent rather than padded, so they can neither join the chain nor tie.
    """
    n = p.size
    lead = np.zeros(n, dtype=np.min_scalar_type(window))
    tied = np.zeros(n, dtype=bool)
    top = np.full(n, float(a))
    for j in range(1, window + 1):
        past = p[: n - j]
        lead[: n - j] += past > top[j:]
        tied[j:] |= past == top[j:]
        np.maximum(top[j:], past, out=top[j:])
    return lead, tied


def _add_lag(slope, kinks, p, j, gain, enters) -> None:
    """Add lag j of every sample to the false-negative ``slope`` and ``kinks``.

    ``gain`` holds the (n - j,) coefficients of the lags over samples
    j..n-1, zero where the lag does not enter, and is overwritten;
    ``enters`` marks the lags that do.  With c_ij the coefficient of sample
    i, positive i's expected false-negative weight is 1 - F(p_i) - sum_j
    c_ij * max(F(p_{i-j}) - F(p_i), 0): its slope gains c_ij when lag j is
    predicted above it, and that lag's prediction loses the same amount.
    An entering lag predicted exactly at the positive's value is a kink.
    """
    n = p.size
    gain *= p[: n - j] > p[j:]
    slope[j:] += gain
    slope[: n - j] -= gain
    tie = enters & (p[: n - j] == p[j:])
    if tie.any():
        k = np.flatnonzero(tie)
        kinks.update(k.tolist(), (k + j).tolist())


class _ValueWeight(WeightSpec):
    # Both value variants weight an error by 1 - g(omega, z) over a window of
    # T indicators: the next T labels for a false positive, the previous T
    # alarms for a false negative.  A variant fixes how the window entries
    # merge into g (``_merge``), what that merge takes off the expected
    # misses (``_window_credit``), and which past lags enter its slopes with
    # which coefficient (``error_slopes``, each lag through ``_add_lag``).
    # Window positions outside the record contribute nothing.

    @property
    def window(self) -> int:
        return len(self.omega)

    def _record_omega(self, n: int) -> tuple[float, ...]:
        """Weights of the min(T, n - 1) lags a series of n samples has."""
        return self.omega[: n - 1]

    def fp_factors(self, series):
        # The labels alone decide them, so every series with these labels
        # shares one read-only copy.
        return series.label_derived(self, self._window_fp_factors)

    def _window_fp_factors(self, series):
        n = series.n
        g = np.zeros(n)
        for j, w in enumerate(self._record_omega(n), start=1):
            self._merge(g[: n - j], w * series.pos[j:], out=g[: n - j])
        return (1.0 - g) * series.neg

    def fn_factors(self, series, alarm):
        n = series.n
        g = np.zeros(alarm.shape)
        for j, w in enumerate(self._record_omega(n), start=1):
            self._merge(g[j:], w * alarm[: n - j], out=g[j:])
        return 1.0 - g

    def _window_credit(self, pos: np.ndarray, cdf: np.ndarray) -> float:
        """What the windows take off the expected misses of the positives
        (the float mask ``pos``), from the cdf alone: E[FN] - E[wFN]."""
        raise NotImplementedError

    def expected_errors(self, series, dist, cdf):
        _require_support(series, dist)
        e_wfn = series.pos @ (1.0 - cdf) - self._window_credit(series.pos, cdf)
        return float(self.fp_factors(series) @ cdf), float(e_wfn)


@dataclass(frozen=True)
class ValueProdWeight(_ValueWeight):
    """Value weight 1 - omega . z over the temporal window (dot-product form)."""

    omega: tuple[float, ...]
    name = "value_prod"
    _merge = np.add

    def __post_init__(self):
        omega = _check_omega(self.omega)
        if sum(omega) >= 1.0:
            raise ValidationError("value_prod needs sum(omega) < 1")
        object.__setattr__(self, "omega", omega)

    def _window_credit(self, pos, cdf):
        # Lag j alarms above p_i on a prior mass of (F_{i-j} - F_i)+, and
        # each such alarm takes its omega_j off the miss.
        n = cdf.size
        credit = 0.0
        for j, w in enumerate(self._record_omega(n), start=1):
            gap = cdf[: n - j] - cdf[j:]
            credit += w * (pos[j:] @ np.maximum(gap, 0.0, out=gap))
        return credit

    def error_slopes(self, series, dist):
        # Every lag inside the record enters with its own omega.
        p, pos = series.predictions, series.pos
        slope, kinks = -pos, set()
        is_pos = pos.astype(bool)
        for j, w in enumerate(self._record_omega(p.size), start=1):
            _add_lag(slope, kinks, p, j, pos[j:] * w, is_pos[j:])
        return self.fp_factors(series), slope, kinks


@dataclass(frozen=True)
class ValueMaxWeight(_ValueWeight):
    """Value weight 1 - max(omega * z): only the nearest hit in the window counts."""

    omega: tuple[float, ...]
    name = "value_max"
    _merge = np.maximum

    def __post_init__(self):
        omega = _check_omega(self.omega)
        if max(omega) >= 1.0:
            raise ValidationError("value_max needs max(omega) < 1")
        object.__setattr__(self, "omega", omega)

    def _window_credit(self, pos, cdf):
        # Above p_i the miss weighs 1 - omega_m, m the nearest lag alarmed.
        # omega does not increase, so omega_m is the sum over j >= m of
        # omega_j - omega_{j+1} (omega_{T+1} = 0), and j >= m exactly when
        # some lag within j alarms: on the mass max(F_{i-1..i-j}) - F_i,
        # since F does not decrease.  ``reach`` holds that running maximum
        # less F_i, at least 0; lags before the record start are absent.
        n = cdf.size
        omega = self._record_omega(n) + (0.0,)
        credit = 0.0
        reach = np.zeros(n)
        for j in range(1, len(omega)):
            gap = cdf[: n - j] - cdf[j:]
            np.maximum(reach[j:], gap, out=reach[j:])
            credit += (omega[j - 1] - omega[j]) * (pos @ reach)
        return credit

    def error_slopes(self, series, dist):
        # Chain form: telescoping the per-interval integrals leaves one term
        # per chain member, weighted by the drop from its omega to the next
        # member's (0 after the last), so the lags are scanned backwards with
        # that next omega, ``following``, running.  omega does not increase,
        # so a member's omega is never below ``following`` and replaces it,
        # and the drop is exactly the change of ``following``.  Two buffers
        # alternate: the new ``following`` goes into the spare one, and the
        # drop over the old ``following``, which ``_add_lag`` may then
        # overwrite.  Lag j's members among the positives are read off the
        # lead counts into one shared mask.
        p, pos = series.predictions, series.pos
        n = p.size
        omega = self._record_omega(n)
        lead, tied = _chain_members(p, dist.support[0], len(omega))
        is_pos = pos.astype(bool)
        slope, kinks = -pos, set(np.flatnonzero(tied & is_pos).tolist())
        following, spare = np.zeros(n), np.zeros(n)
        member = np.empty(n, dtype=bool)
        for j in range(len(omega), 0, -1):
            here = np.greater_equal(lead[: n - j], j, out=member[j:])
            np.logical_and(here, is_pos[j:], out=here)
            now = np.multiply(here, omega[j - 1], out=spare[j:])
            np.maximum(now, following[j:], out=now)
            drop = np.subtract(now, following[j:], out=following[j:])
            following, spare = spare, following
            _add_lag(slope, kinks, p, j, drop, here)
        return self.fp_factors(series), slope, kinks


def eval_weight(spec: WeightSpec, tau: float, i: int, series: LabeledSeries) -> float:
    """Weight of sample i (0-based) at threshold ``tau``, read off the hard-path
    factors: a negative's false-positive factor, a positive's false-negative one."""
    if series.labels[i] == 0:
        return float(spec.fp_factors(series)[i])
    alarm = series.predictions[:, None] > tau
    return float(spec.fn_factors(series, alarm)[i, 0])
