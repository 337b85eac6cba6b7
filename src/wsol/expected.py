"""Closed-form expected confusion entries under the threshold prior.

Averaging the hard matrix over the threshold replaces every indicator
with the prior cdf F, so each class sum of the hard matrix becomes a dot
product of the series' float class mask with F or 1 - F.  The correct
entries are the same for every weight variant and are assembled here
that way; the weighted error entries come from the variant's own
``expected_errors``.  For the value weights the false-negative entry
couples each positive sample to its window of past predictions through
the cdf alone: the dot-product form needs pairwise cdf differences, and
the max form, where only the nearest alarm counts, the running maxima of
F over the window.  The window's chain, one lead count per sample
(``weights._chain_members``), and its telescoped coefficients serve only
the slopes, one lag at a time, and ``wsol verify``'s worked windows.
``expected_report`` gives ``wsol eval`` and ``wsol train`` the expected
classical and weighted matrices with every score of each.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

from .errors import ValidationError
from .scores import score_table
from .series import LabeledSeries
from .threshold import ThresholdDistribution
from .weights import UnitWeight, WeightSpec


@dataclass(frozen=True)
class ExpectedConfusion:
    e_tn: float
    e_wfp: float
    e_wfn: float
    e_tp: float

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if v < -1e-9:
                raise ValidationError(f"expected entry {f.name} is negative: {v}")
            if v < 0.0:
                object.__setattr__(self, f.name, 0.0)

    def entries(self) -> tuple[float, float, float, float]:
        """(tn, wfp, wfn, tp) order, matching the score functions."""
        return (self.e_tn, self.e_wfp, self.e_wfn, self.e_tp)


def expected_tp_tn(
    series: LabeledSeries, dist: ThresholdDistribution
) -> tuple[float, float]:
    """(E[TP], E[TN]): correct entries are untouched by any weight variant."""
    exp = expected_confusion(series, dist, UnitWeight())
    return exp.e_tp, exp.e_tn


def expected_wfp(
    series: LabeledSeries, dist: ThresholdDistribution, spec: WeightSpec
) -> float:
    """Expected weighted false-positive entry."""
    return expected_confusion(series, dist, spec).e_wfp


def expected_wfn(
    series: LabeledSeries, dist: ThresholdDistribution, spec: WeightSpec
) -> float:
    """Expected weighted false-negative entry."""
    return expected_confusion(series, dist, spec).e_wfn


def expected_confusion(
    series: LabeledSeries, dist: ThresholdDistribution, spec: WeightSpec
) -> ExpectedConfusion:
    """Assemble all four expected entries from one evaluation of the cdf."""
    cdf = dist.cdf(series.predictions)
    e_wfp, e_wfn = spec.expected_errors(series, dist, cdf)
    return ExpectedConfusion(
        e_tn=float(series.neg @ (1.0 - cdf)),
        e_wfp=e_wfp,
        e_wfn=e_wfn,
        e_tp=float(series.pos @ cdf),
    )


def expected_report(
    series: LabeledSeries, dist, weight_spec: WeightSpec
) -> dict:
    """Expected classical and weighted matrices with all scores of each."""
    classical = expected_confusion(series, dist, UnitWeight())
    weighted = expected_confusion(series, dist, weight_spec)
    return {
        "classical": asdict(classical),
        "weighted": asdict(weighted),
        "scores_classical": score_table(*classical.entries()),
        "scores_weighted": score_table(*weighted.entries()),
    }
