"""Weight functions applied to the false-positive and false-negative sums.

Five variants: unit (classical matrix), cost (fixed per-error-type cost),
cross-entropy (prediction-dependent), and two value variants that reward
errors adjacent in time to events or alarms through a window of length T.
The value variants read a series' index order as its time order.

Each variant's class owns the decisions that depend on it:

* ``fp_factors`` -- the weight of each sample as a false positive, which
  never depends on the threshold;
* ``fn_factors`` -- the weight of each sample as a false negative, given
  the (n, B) alarm matrix of B thresholds;
* ``closed_form_terms`` -- what both closed forms derive from the series
  and the prior's support alone, built once per loss evaluation: for the
  value variants, (T, n) lag rows and FP factors, each masked to its class;
* ``expected_errors`` -- the closed-form (E[wFP], E[wFN]) under a
  threshold prior;
* ``error_slopes`` -- their derivatives over the prior density at each
  prediction, with the indices where only one-sided ones exist.

The two factor methods are the hard path the oracles integrate, and the
only definition of each weight in the package; the other three are the
closed forms those oracles check.  ``eval_weight`` reads one sample's
weight off the factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedCombinationError, ValidationError, check_finite
from .series import LabeledSeries


class WeightSpec:
    """Base for the weight-function variants: one weight, defined by its
    hard-path factors, and closed forms whose derivatives all share the
    prior density as a factor, which the loss gradient applies."""

    name = "abstract"

    def check_prior(self, dist) -> None:
        """Raise when the closed forms do not cover this threshold prior."""

    def fp_factors(self, series: LabeledSeries) -> np.ndarray:
        """Weight of each sample as a false positive, shape (n,)."""
        raise NotImplementedError

    def fn_factors(self, series: LabeledSeries, alarm: np.ndarray) -> np.ndarray:
        """Weight of each sample as a false negative at each threshold.

        ``alarm`` is the (n, B) matrix of 1{prediction > tau_b}; the result
        broadcasts against it.
        """
        raise NotImplementedError

    def closed_form_terms(self, series: LabeledSeries, dist):
        """The terms both closed forms take, from the series and the prior's support.

        None for the variants whose closed forms need only the series.
        """
        return None

    def expected_errors(
        self, series: LabeledSeries, dist, cdf: np.ndarray, terms
    ) -> tuple[float, float]:
        """(E[wFP], E[wFN]) under ``dist``; ``cdf`` is its cdf at each prediction.

        ``terms`` is ``closed_form_terms(series, dist)``.
        """
        raise NotImplementedError

    def error_slopes(
        self, series: LabeledSeries, terms
    ) -> tuple[np.ndarray, np.ndarray, set[int]]:
        """(fp_slope, fn_slope, kink indices), one slope per prediction.

        dE[wFP]/dp_i = fp_slope_i * f(p_i) for the prior density f, and
        likewise for wFN.  Where the weight does not depend on the
        predictions, a slope is the drop of the hard entry as the threshold
        rises through p_i.  ``terms`` is ``closed_form_terms(series, dist)``.
        At a kink index only a one-sided derivative exists.
        """
        raise NotImplementedError


class _ErrorTypeWeight(WeightSpec):
    # c01 on every false positive, c10 on every false negative.  The
    # expected entries scale the unit sums after summing, so a cost weight
    # gives exactly c01 * E[FP] and c10 * E[FN].

    def fp_factors(self, series):
        return np.full(series.n, float(self.c01))

    def fn_factors(self, series, alarm):
        return np.full((series.n, 1), float(self.c10))

    def expected_errors(self, series, dist, cdf, terms):
        return (
            self.c01 * float(series.neg @ cdf),
            self.c10 * float(series.pos @ (1.0 - cdf)),
        )

    def error_slopes(self, series, terms):
        return self.c01 * series.neg, -self.c10 * series.pos, set()


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

    def check_prior(self, dist) -> None:
        if dist.kind != "uniform" or dist.support != (0.0, 1.0):
            raise UnsupportedCombinationError(
                "cross-entropy weights have a closed-form expectation only under "
                "the uniform prior on [0, 1]"
            )

    def fp_factors(self, series):
        p = series.predictions
        return -self.omega0 * np.log1p(-p) / p

    def fn_factors(self, series, alarm):
        p = series.predictions
        return (-self.omega1 * np.log(p) / (1.0 - p))[:, None]

    def expected_errors(self, series, dist, cdf, terms):
        self.check_prior(dist)
        p = series.predictions
        return (
            float(-self.omega0 * (series.neg @ np.log1p(-p))),
            float(-self.omega1 * (series.pos @ np.log(p))),
        )

    def error_slopes(self, series, terms):
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

    ``member[j - 1, i]`` is set when the prediction at lag j of sample i
    exceeds the lower support bound ``a`` and every nearer lag's prediction
    strictly: the strict running maxima, which are exactly the lags whose
    power interval is non-empty (of equal predictions the nearer lag keeps
    the interval).  ``tied[i]`` flags a lag equal to that running maximum,
    a chain-membership boundary.  Lags before the record start are absent
    rather than padded, so they can neither join the chain nor tie.
    """
    n = p.size
    member = np.zeros((window, n), dtype=bool)
    tied = np.zeros(n, dtype=bool)
    top = np.full(n, float(a))
    for j in range(1, window + 1):
        past = p[: n - j]
        np.greater(past, top[j:], out=member[j - 1, j:])
        tied[j:] |= past == top[j:]
        np.maximum(top[j:], past, out=top[j:])
    return member, tied


class _ValueWeight(WeightSpec):
    # Both value variants weight an error by 1 - g(omega, z) over a window of
    # T indicators: the next T labels for a false positive, the previous T
    # alarms for a false negative.  A variant fixes how the window entries
    # merge into g (``_merge``) and which past lags enter the closed form
    # with which coefficient (``_lag_terms``).  Window positions outside
    # the record contribute nothing.

    @property
    def window(self) -> int:
        return len(self.omega)

    def _record_omega(self, n: int) -> tuple[float, ...]:
        """Weights of the min(T, n - 1) lags a series of n samples has."""
        return self.omega[: n - 1]

    def fp_factors(self, series):
        n = series.n
        g = np.zeros(n)
        for j, w in enumerate(self._record_omega(n), start=1):
            self._merge(g[: n - j], w * series.pos[j:], out=g[: n - j])
        return 1.0 - g

    def fn_factors(self, series, alarm):
        n = series.n
        g = np.zeros(alarm.shape)
        for j, w in enumerate(self._record_omega(n), start=1):
            self._merge(g[j:], w * alarm[: n - j], out=g[j:])
        return 1.0 - g

    def _lag_terms(
        self, p: np.ndarray, a: float, pos: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(coef, enters, tied) of the positives (the float mask ``pos``),
        zero elsewhere; coef and enters are (T, n), a row per lag.

        The expected false-negative weight of positive i is
        1 - F(p_i) - sum_j coef[j - 1, i] * max(F(p_{i-j}) - F(p_i), 0);
        ``enters`` marks the lags that take part (coef is zero elsewhere),
        and ``tied`` the samples at a kink of the lag structure itself.
        """
        raise NotImplementedError

    def closed_form_terms(self, series, dist):
        """(fp_neg, coef, enters, tied): ``fp_factors`` zeroed on positives,
        then ``_lag_terms`` of the positives, a C-contiguous (n,) row for each
        lag of ``_record_omega``, so every class sum is a dot product."""
        _require_support(series, dist)
        lags = self._lag_terms(series.predictions, dist.support[0], series.pos)
        return (self.fp_factors(series) * series.neg, *lags)

    def expected_errors(self, series, dist, cdf, terms):
        n = series.n
        fp_neg, coef, _, _ = terms
        e_wfn = series.pos @ (1.0 - cdf)
        for j in range(1, coef.shape[0] + 1):
            gap = cdf[: n - j] - cdf[j:]
            e_wfn -= coef[j - 1, j:] @ np.maximum(gap, 0.0, out=gap)
        return float(fp_neg @ cdf), float(e_wfn)

    def error_slopes(self, series, terms):
        p = series.predictions
        n = series.n
        fp_neg, coef, enters, tied = terms
        kinks = set(np.flatnonzero(tied).tolist())
        # A positive's slope is that of 1 - F(p_i), plus every entering lag
        # predicted above it; that lag's prediction loses the same amount.
        # A lag predicted exactly at the positive's value is a kink.
        slope = -series.pos
        for j in range(1, coef.shape[0] + 1):
            gain = coef[j - 1, j:] * (p[: n - j] > p[j:])
            slope[j:] += gain
            slope[: n - j] -= gain
            k = np.flatnonzero(enters[j - 1, j:] & (p[: n - j] == p[j:]))
            kinks.update(k.tolist(), (k + j).tolist())
        return fp_neg, slope, kinks


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

    def _lag_terms(self, p, a, pos):
        # Every lag inside the record enters with its own omega.
        omega = np.array(self._record_omega(p.size))[:, None]
        enters = np.arange(1, omega.size + 1)[:, None] <= np.arange(p.size)
        np.logical_and(enters, pos, out=enters)
        return omega * enters, enters, np.zeros(p.size, dtype=bool)


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

    def _lag_terms(self, p, a, pos):
        omega = self._record_omega(p.size)
        # Chain form: telescoping the per-interval integrals leaves one term
        # per chain member, weighted by the drop from its omega to the next
        # member's (0 after the last), found by scanning the lags backwards.
        member, tied = _chain_members(p, a, len(omega))
        np.logical_and(member, pos, out=member)
        np.logical_and(tied, pos, out=tied)
        # omega does not increase, so a nearer member's omega is never below
        # ``following``, and the products give the selected values exactly.
        coef = np.empty(member.shape)
        following = np.zeros(p.size)
        for j in range(len(omega), 0, -1):
            here = member[j - 1]
            np.multiply(omega[j - 1] - following, here, out=coef[j - 1])
            following = np.maximum(following, omega[j - 1] * here)
        return coef, member, tied


def eval_weight(spec: WeightSpec, tau: float, i: int, series: LabeledSeries) -> float:
    """Weight of sample i (0-based) at threshold ``tau``, read off the hard-path
    factors: a negative's false-positive factor, a positive's false-negative one."""
    if series.labels[i] == 0:
        return float(spec.fp_factors(series)[i])
    alarm = series.predictions[:, None] > tau
    return float(spec.fn_factors(series, alarm)[i, 0])
