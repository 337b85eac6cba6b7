"""Classification metrics on (weighted or expected) confusion entries.

Every score is non-decreasing in the tn/tp entries and non-increasing in
the error entries on the positive orthant, which is what lets a loss built
from one steer training in the right direction.  Entries are real-valued
because they may be weighted sums or threshold averages, not just counts.

Zero denominators evaluate to 0 (the skill-less convention) with a flag in
the result, so threshold sweeps never poison downstream aggregates;
partial derivatives at such points raise instead, naming the denominator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDenominatorError, ValidationError


class ScoreKind(str, enum.Enum):
    ACCURACY = "accuracy"
    F1 = "f1"
    TSS = "tss"
    HSS = "hss"
    NEG_ERROR_SUM = "neg_error_sum"

    @classmethod
    def parse(cls, name: str) -> "ScoreKind":
        try:
            return cls(name)
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise ValidationError(f"unknown score {name!r}; expected one of {valid}")


@dataclass(frozen=True)
class ScoreValue:
    value: float
    degenerate: bool = False


def _entries(tn, wfp, wfn, tp):
    vals = (float(tn), float(wfp), float(wfn), float(tp))
    if min(vals) < 0:
        raise ValidationError("confusion entries must be non-negative")
    return vals


def apply_score(kind: ScoreKind, tn, wfp, wfn, tp) -> ScoreValue:
    """Evaluate a score on real-valued confusion entries: score_array at one point."""
    value, degenerate = score_array(kind, *_entries(tn, wfp, wfn, tp))
    return ScoreValue(float(value), degenerate=bool(degenerate))


def score_partials(kind: ScoreKind, tn, wfp, wfn, tp) -> np.ndarray:
    """Partial derivatives (d/dtn, d/dwfp, d/dwfn, d/dtp) of apply_score."""
    tn, wfp, wfn, tp = _entries(tn, wfp, wfn, tp)
    if kind is ScoreKind.NEG_ERROR_SUM:
        return np.array([0.0, -1.0, -1.0, 0.0])
    if kind is ScoreKind.ACCURACY:
        denom = tp + tn + wfp + wfn
        if denom == 0:
            raise DegenerateDenominatorError("tp + tn + wfp + wfn == 0")
        num = tp + tn
        err = wfp + wfn
        return np.array([err, -num, -num, err]) / denom**2
    if kind is ScoreKind.F1:
        denom = 2 * tp + wfp + wfn
        if denom == 0:
            raise DegenerateDenominatorError("2*tp + wfp + wfn == 0")
        return np.array([0.0, -2 * tp, -2 * tp, 2 * (wfp + wfn)]) / denom**2
    if kind is ScoreKind.TSS:
        pos = tp + wfn
        neg = tn + wfp
        if pos == 0:
            raise DegenerateDenominatorError("tp + wfn == 0")
        if neg == 0:
            raise DegenerateDenominatorError("tn + wfp == 0")
        return np.array(
            [wfp / neg**2, -tn / neg**2, -tp / pos**2, wfn / pos**2]
        )
    if kind is ScoreKind.HSS:
        num = 2.0 * (tp * tn - wfp * wfn)
        denom = (tp + wfn) * (wfn + tn) + (tp + wfp) * (wfp + tn)
        if denom == 0:
            raise DegenerateDenominatorError(
                "(tp + wfn)*(wfn + tn) + (tp + wfp)*(wfp + tn) == 0"
            )
        dnum = np.array([2 * tp, -2 * wfn, -2 * wfp, 2 * tn])
        ddenom = np.array(
            [
                (tp + wfn) + (tp + wfp),
                (wfp + tn) + (tp + wfp),
                (wfn + tn) + (tp + wfn),
                (wfn + tn) + (wfp + tn),
            ]
        )
        return (dnum * denom - num * ddenom) / denom**2
    raise ValidationError(f"unknown score kind {kind!r}")


def _ratio(num, den):
    """(num / den with 0 where den == 0, mask of those places)."""
    bad = den == 0
    return np.divide(num, den, out=np.zeros(bad.shape), where=~bad), bad


def score_array(kind: ScoreKind, tn, wfp, wfn, tp):
    """Every score's formula, vectorized over the entries; degenerate entries become 0.

    Returns (values, degenerate_mask).  apply_score is its scalar view; the
    Monte Carlo oracle and the threshold sweep call it on whole arrays.
    """
    tn, wfp, wfn, tp = (np.asarray(v, dtype=np.float64) for v in (tn, wfp, wfn, tp))
    if kind is ScoreKind.NEG_ERROR_SUM:
        return -(wfp + wfn), np.zeros(np.broadcast(tn, wfp).shape, dtype=bool)
    if kind is ScoreKind.ACCURACY:
        return _ratio(tp + tn, tp + tn + wfp + wfn)
    if kind is ScoreKind.F1:
        return _ratio(2 * tp, 2 * tp + wfp + wfn)
    if kind is ScoreKind.TSS:
        sensitivity, no_pos = _ratio(tp, tp + wfn)
        specificity, no_neg = _ratio(tn, tn + wfp)
        bad = no_pos | no_neg
        return np.where(bad, 0.0, sensitivity + specificity - 1.0), bad
    if kind is ScoreKind.HSS:
        return _ratio(
            2.0 * (tp * tn - wfp * wfn),
            (tp + wfn) * (wfn + tn) + (tp + wfp) * (wfp + tn),
        )
    raise ValidationError(f"unknown score kind {kind!r}")


def score_table(tn, wfp, wfn, tp) -> dict:
    """Every score by name, each a score_array over the entries.

    Floats at scalar entries, nested lists at arrays; degenerate places are 0.
    """
    return {
        kind.value: score_array(kind, tn, wfp, wfn, tp)[0].tolist()
        for kind in ScoreKind
    }
