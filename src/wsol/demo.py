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

from dataclasses import asdict, dataclass

from .confusion import ConfusionCounts, classical_entries, weighted_hard_confusion
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


@dataclass(frozen=True)
class DemoComparison:
    tau: float
    confusion: dict
    classical_scores: dict
    weighted_scores_adjacent: dict
    weighted_scores_isolated: dict
    expected_weighted_adjacent: dict
    expected_weighted_isolated: dict

    def to_dict(self) -> dict:
        return {
            "tau": self.tau,
            "confusion": self.confusion,
            "classical_scores": self.classical_scores,
            "weighted_scores": {
                "adjacent_errors": self.weighted_scores_adjacent,
                "isolated_errors": self.weighted_scores_isolated,
            },
            "expected_weighted_scores": {
                "adjacent_errors": self.expected_weighted_adjacent,
                "isolated_errors": self.expected_weighted_isolated,
            },
        }


def compare_series(
    weights: WeightSpec = DEFAULT_DEMO_WEIGHTS, tau: float = DEMO_THRESHOLD
) -> DemoComparison:
    """Score both arrangements classically and with value weights."""
    dist = ThresholdDistribution.uniform()
    series_a = adjacent_error_series()
    series_b = isolated_error_series()
    wc_a = weighted_hard_confusion(series_a, tau, weights)
    wc_b = weighted_hard_confusion(series_b, tau, weights)
    # Both series share one classical matrix, read off the weighted one.
    cm = ConfusionCounts(*classical_entries(series_a, wc_a.tn, wc_a.tp))
    return DemoComparison(
        tau=tau,
        confusion=asdict(cm),
        classical_scores=score_table(cm.tn, cm.fp, cm.fn, cm.tp),
        weighted_scores_adjacent=score_table(wc_a.tn, wc_a.wfp, wc_a.wfn, wc_a.tp),
        weighted_scores_isolated=score_table(wc_b.tn, wc_b.wfp, wc_b.wfn, wc_b.tp),
        expected_weighted_adjacent=score_table(
            *expected_confusion(series_a, dist, weights).entries()
        ),
        expected_weighted_isolated=score_table(
            *expected_confusion(series_b, dist, weights).entries()
        ),
    )
