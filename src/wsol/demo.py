"""Two series with identical confusion matrices but different error timing.

Both series hold the same multiset of (prediction, label) pairs, so every
threshold sees the same classical matrix -- (tn, fp, fn, tp) =
(15, 4, 2, 5) at 0.5 -- and every classical score agrees.  They differ
only in arrangement: in the adjacent-error series each missed event is
preceded by alarms and each false alarm anticipates a nearby event, while
in the isolated-error series the misses come out of the blue and the
false alarms trail after everything.  Value weights tell them apart, both
on the hard matrices at one threshold and in expectation under the
uniform threshold prior.
"""

from __future__ import annotations

from .confusion import hard_entries
from .expected import expected_confusion
from .scores import score_table
from .series import LabeledSeries
from .threshold import ThresholdDistribution
from .weights import ValueMaxWeight, WeightSpec

DEMO_THRESHOLD = 0.5
DEFAULT_DEMO_WEIGHTS = ValueMaxWeight(omega=(0.6, 0.3, 0.1))

# fmt: off
_ADJACENT = [
    # timeline: alarms (0.70..0.88) cluster around the event bursts; both
    # misses (0.30, 0.32) sit right after alarms inside a burst.
    (0.10, 0), (0.11, 0), (0.12, 0), (0.13, 0), (0.14, 0),
    (0.70, 0), (0.72, 0), (0.80, 1), (0.82, 1), (0.30, 1),
    (0.15, 0), (0.16, 0), (0.74, 0), (0.84, 1), (0.32, 1),
    (0.86, 1), (0.17, 0), (0.18, 0), (0.19, 0), (0.76, 0),
    (0.88, 1), (0.20, 0), (0.21, 0), (0.22, 0), (0.23, 0),
    (0.24, 0),
]
_ISOLATED = [
    # same pairs rearranged: the first event is missed with no prior alarm,
    # the second miss is equally unheralded, and all false alarms come last
    # with no event anywhere near.
    (0.10, 0), (0.11, 0), (0.30, 1), (0.12, 0), (0.13, 0),
    (0.14, 0), (0.15, 0), (0.80, 1), (0.82, 1), (0.84, 1),
    (0.16, 0), (0.17, 0), (0.18, 0), (0.86, 1), (0.88, 1),
    (0.19, 0), (0.20, 0), (0.21, 0), (0.22, 0), (0.32, 1),
    (0.23, 0), (0.24, 0), (0.70, 0), (0.72, 0), (0.74, 0),
    (0.76, 0),
]
# fmt: on


def adjacent_error_series() -> LabeledSeries:
    return LabeledSeries.from_pairs(_ADJACENT)


def isolated_error_series() -> LabeledSeries:
    return LabeledSeries.from_pairs(_ISOLATED)


def compare_series(
    weights: WeightSpec = DEFAULT_DEMO_WEIGHTS, tau: float = DEMO_THRESHOLD
) -> dict:
    """The comparison document: both arrangements scored classically and with
    value weights, at ``tau`` and in expectation under the uniform prior."""
    dist = ThresholdDistribution.uniform()
    series = {
        "adjacent_errors": adjacent_error_series(),
        "isolated_errors": isolated_error_series(),
    }
    entries = {
        name: hard_entries(s, (tau,), weights)[..., 0] for name, s in series.items()
    }
    # Both series share one classical matrix.
    cm = entries["adjacent_errors"][:, 0]
    return {
        "tau": tau,
        "confusion": dict(zip(("tn", "fp", "fn", "tp"), cm.astype(int).tolist())),
        "classical_scores": score_table(*cm),
        "weighted_scores": {name: score_table(*e[:, 1]) for name, e in entries.items()},
        "expected_weighted_scores": {
            name: score_table(*expected_confusion(s, dist, weights).entries())
            for name, s in series.items()
        },
    }
