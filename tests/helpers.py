"""Helpers the test modules import: series builders and the per-sample weights.

``reference_weight`` evaluates one sample's weight from the definition,
one window at a time.  The package computes the same weights only as the
hard-path factors of whole series (``WeightSpec.fp_factors`` and
``fn_factors``), so this loop is what the tests check those factors, and
the hard matrices summed from them, against.
"""

import numpy as np

from wsol.series import LabeledSeries
from wsol.verify import random_omega, random_series, weight_menu  # noqa: F401
from wsol.weights import (
    CostWeight,
    CrossEntropyWeight,
    UnitWeight,
    ValueMaxWeight,
    ValueProdWeight,
    WeightSpec,
)


def make_series(
    rng: np.random.Generator,
    n: int | None = None,
    lo: float = 0.02,
    hi: float = 0.98,
) -> LabeledSeries:
    """``random_series`` of 8-39 samples (or ``n``), predictions moved onto (lo, hi)."""
    series = random_series(rng, n or int(rng.integers(8, 40)))
    if (lo, hi) == (0.02, 0.98):
        return series
    return series.with_predictions(lo + (hi - lo) * (series.predictions - 0.02) / 0.96)


def future_labels(series: LabeledSeries, i: int, window: int) -> np.ndarray:
    """Labels at i+1 .. i+window; indices past the end contribute 0."""
    out = np.zeros(window, dtype=np.float64)
    hi = min(window, series.n - 1 - i)
    if hi > 0:
        out[:hi] = series.labels[i + 1 : i + 1 + hi]
    return out


def past_alarm_indicators(
    series: LabeledSeries, i: int, window: int, tau: float
) -> np.ndarray:
    """Alarm indicators 1{pred > tau} at i-1 .. i-window; pre-record lags are 0."""
    out = np.zeros(window, dtype=np.float64)
    lo = min(window, i)
    if lo > 0:
        past = series.predictions[i - lo : i][::-1]
        out[:lo] = (past > tau).astype(np.float64)
    return out


def reference_weight(
    spec: WeightSpec, tau: float, i: int, series: LabeledSeries
) -> float:
    """Weight of sample i (0-based) at a fixed threshold, from the definition.

    A value weight is 1 - g(omega, z) over the window z: the next T labels
    of a negative, the previous T alarms of a positive; g is the dot
    product for value_prod and the largest omega_j * z_j for value_max.
    Window positions outside the record contribute nothing.
    """
    y = int(series.labels[i])
    if isinstance(spec, UnitWeight):
        return 1.0
    if isinstance(spec, CostWeight):
        return (1 - y) * spec.c01 + y * spec.c10
    if isinstance(spec, CrossEntropyWeight):
        p = float(series.predictions[i])
        if y == 0:
            return -spec.omega0 * np.log1p(-p) / p
        return -spec.omega1 * np.log(p) / (1.0 - p)
    if isinstance(spec, (ValueProdWeight, ValueMaxWeight)):
        if y == 1:
            z = past_alarm_indicators(series, i, spec.window, tau)
        else:
            z = future_labels(series, i, spec.window)
        omega = np.asarray(spec.omega)
        if isinstance(spec, ValueProdWeight):
            return 1.0 - float(np.dot(omega, z))
        return 1.0 - float(np.max(omega * z))
    raise ValueError(f"unknown weight spec {spec!r}")
