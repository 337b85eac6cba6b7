"""Classification metrics on (weighted or expected) confusion entries.

Every score is non-decreasing in the tn/tp entries and non-increasing in
the error entries on the positive orthant, which is what lets a loss built
from one steer training in the right direction.  Entries are real-valued
because they may be weighted sums or threshold averages, not just counts.

Zero denominators evaluate to +0.0 (the skill-less convention) with a flag
in the result, so threshold sweeps never poison downstream aggregates.
Each formula is written once, in _formulas, with a branch-free zero guard,
so one set of formulas takes any operand type: apply_score evaluates it on
four Python floats, score_array on float arrays, and score_partials on one
(4, 4) complex array, reading the partials off it by complex step and
raising at a zero denominator, naming it.
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
    """Evaluate a score on real-valued confusion entries: the formulas of
    score_array on Python floats, bit for bit its value at one point."""
    value, degenerate = _formulas(kind, *_entries(tn, wfp, wfn, tp))
    return ScoreValue(float(value), degenerate=bool(degenerate))


# Denominators as DegenerateDenominatorError names them; TSS's other is tn + wfp.
_DENOMINATORS = {
    ScoreKind.ACCURACY: "tp + tn + wfp + wfn",
    ScoreKind.F1: "2*tp + wfp + wfn",
    ScoreKind.TSS: "tp + wfn",
    ScoreKind.HSS: "(tp + wfn)*(wfn + tn) + (tp + wfp)*(wfp + tn)",
}

_STEP = 1e-200  # h*h underflows to 0, so zero denominators stay exactly 0
_STEPS = 1j * _STEP * np.eye(4)  # row k steps entry k
_STEPS.flags.writeable = False


def score_partials(kind: ScoreKind, tn, wfp, wfn, tp) -> np.ndarray:
    """Partial derivatives (d/dtn, d/dwfp, d/dwfn, d/dtp) of apply_score.

    The formula's imaginary parts at each entry plus i*h, over h: exact to
    rounding (Squire & Trapp 1998) for entries from about 1e-105 to 1e105,
    where h times every derivative inside a formula stays a normal float.
    """
    tn, wfp, wfn, tp = _entries(tn, wfp, wfn, tp)
    stepped = np.array([[tn], [wfp], [wfn], [tp]]) + _STEPS
    values, degenerate = _formulas(kind, *stepped)
    if degenerate.any():
        name = _DENOMINATORS[kind]
        if kind is ScoreKind.TSS and tp + wfn != 0:
            name = "tn + wfp"
        raise DegenerateDenominatorError(f"{name} == 0")
    return values.imag / _STEP + 0.0  # + 0.0: a zero partial is never -0.0


def _ratio(num, den):
    """(num / den with +0.0 where den == 0, mask of those places), branch-free
    for floats and arrays alike: a zero denominator divides by 1, the 0 scale
    clears the quotient, and + 0.0 turns a -0.0 left by it into +0.0."""
    bad = den.real == 0
    return num / (den + bad) * (1 - bad) + 0.0, bad


def score_array(kind: ScoreKind, tn, wfp, wfn, tp):
    """Every score's formula, vectorized over the entries; degenerate entries become 0.

    Returns (values, degenerate_mask).  apply_score runs the same formulas
    on floats; the Monte Carlo oracle and the threshold sweep call it on
    whole arrays.
    """
    tn, wfp, wfn, tp = (np.asarray(v, dtype=np.float64) for v in (tn, wfp, wfn, tp))
    return _formulas(kind, tn, wfp, wfn, tp)


def _formulas(kind: ScoreKind, tn, wfp, wfn, tp):
    """score_array on the entries as given: Python floats from apply_score,
    float arrays, or complex arrays from score_partials."""
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
        return (sensitivity + specificity - 1.0) * (1 - bad) + 0.0, bad
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
