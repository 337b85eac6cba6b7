import numpy as np
import pytest

from helpers import make_series, random_omega, weight_menu
from wsol.confusion import (
    ConfusionCounts,
    hard_confusion,
    hard_entries,
    weighted_hard_confusion,
)
from wsol.errors import ValidationError
from wsol.series import LabeledSeries
from wsol.weights import (
    CostWeight,
    UnitWeight,
    ValueMaxWeight,
    ValueProdWeight,
)


def loop_confusion(series, tau):
    """Independent per-sample enumeration of the classical counts."""
    tn = fp = fn = tp = 0
    for pred, label in zip(series.predictions, series.labels):
        alarm = pred > tau
        if label == 1 and alarm:
            tp += 1
        elif label == 1:
            fn += 1
        elif alarm:
            fp += 1
        else:
            tn += 1
    return tn, fp, fn, tp


def test_matches_per_sample_enumeration(rng):
    for _ in range(25):
        series = make_series(rng, n=20)
        tau = float(rng.uniform(0.05, 0.95))
        cm = hard_confusion(series, tau)
        assert (cm.tn, cm.fp, cm.fn, cm.tp) == loop_confusion(series, tau)


def test_perfect_positive_classification():
    n = 12
    series = LabeledSeries(np.full(n, 0.9), np.ones(n, dtype=int))
    cm = hard_confusion(series, 0.5)
    assert (cm.tn, cm.fp, cm.fn, cm.tp) == (0, 0, 0, n)


def test_prediction_equal_to_threshold_counts_negative():
    series = LabeledSeries(np.array([0.5, 0.5]), np.array([1, 0]))
    cm = hard_confusion(series, 0.5)
    assert (cm.tn, cm.fp, cm.fn, cm.tp) == (1, 0, 1, 0)


def test_counts_sum_to_n(rng):
    for _ in range(20):
        series = make_series(rng)
        cm = hard_confusion(series, float(rng.uniform(0.05, 0.95)))
        assert cm.n == series.n


def test_step_function_between_breakpoints(rng):
    series = make_series(rng, n=15)
    preds = np.sort(np.unique(series.predictions))
    for lo, hi in zip(preds[:-1], preds[1:]):
        taus = np.linspace(lo + 1e-9, hi - 1e-9, 5)
        counts = {hard_confusion(series, float(t)) for t in taus}
        assert len(counts) == 1


def test_threshold_domain():
    series = LabeledSeries(np.array([0.5]), np.array([1]))
    for tau in (0.0, 1.0, float("nan")):
        # The message names the first threshold outside (0, 1).
        with pytest.raises(ValidationError, match=f"got {tau}$"):
            hard_confusion(series, tau)
        with pytest.raises(ValidationError, match=f"got {tau}$"):
            weighted_hard_confusion(series, tau, UnitWeight())
        with pytest.raises(ValidationError, match=f"got {tau}$"):
            hard_entries(series, (0.5, tau, 2.0), UnitWeight())


class TestHardEntries:
    def test_stacks_classical_and_weighted_per_threshold(self, rng):
        series = make_series(rng, n=30)
        spec = ValueMaxWeight((0.6, 0.3, 0.1))
        taus = np.array([0.05, 0.3, 0.5, 0.77, 0.95])
        entries = hard_entries(series, taus, spec)
        assert entries.shape == (4, 2, taus.size)
        for b, tau in enumerate(taus):
            cm = hard_confusion(series, float(tau))
            wc = weighted_hard_confusion(series, float(tau), spec)
            assert tuple(entries[:, 0, b]) == (cm.tn, cm.fp, cm.fn, cm.tp)
            assert (entries[0, 1, b], entries[3, 1, b]) == (wc.tn, wc.tp)
            np.testing.assert_allclose(
                entries[1:3, 1, b], (wc.wfp, wc.wfn), rtol=0, atol=1e-12
            )


class TestWeighted:
    def test_unit_weights_recover_classical(self, rng):
        for _ in range(10):
            series = make_series(rng)
            tau = float(rng.uniform(0.05, 0.95))
            cm = hard_confusion(series, tau)
            wc = weighted_hard_confusion(series, tau, UnitWeight())
            assert (wc.tn, wc.wfp, wc.wfn, wc.tp) == (cm.tn, cm.fp, cm.fn, cm.tp)

    def test_zero_omega_recovers_classical(self, rng):
        series = make_series(rng)
        tau = 0.5
        cm = hard_confusion(series, tau)
        for spec in (ValueProdWeight((0.0, 0.0)), ValueMaxWeight((0.0, 0.0, 0.0))):
            wc = weighted_hard_confusion(series, tau, spec)
            assert wc.wfp == cm.fp and wc.wfn == cm.fn

    def test_cost_weights_scale_counts(self, rng):
        series = make_series(rng)
        tau = 0.5
        cm = hard_confusion(series, tau)
        wc = weighted_hard_confusion(series, tau, CostWeight(c01=2.0, c10=3.0))
        assert wc.wfp == 2.0 * cm.fp and wc.wfn == 3.0 * cm.fn

    def test_value_max_matches_window_enumeration(self, rng):
        # Direct per-sample evaluation of 1 - max(omega * indicator window).
        omega = (0.5, 0.3, 0.1)
        series = make_series(rng, n=10)
        tau = 0.5
        wc = weighted_hard_confusion(series, tau, ValueMaxWeight(omega))
        wfn = 0.0
        wfp = 0.0
        p, y = series.predictions, series.labels
        for i in range(series.n):
            if y[i] == 1 and p[i] <= tau:
                z = [
                    1.0 if (i - j >= 0 and p[i - j] > tau) else 0.0
                    for j in range(1, 4)
                ]
                wfn += 1.0 - max(w * zi for w, zi in zip(omega, z))
            elif y[i] == 0 and p[i] > tau:
                z = [
                    float(y[i + j]) if i + j < series.n else 0.0
                    for j in range(1, 4)
                ]
                wfp += 1.0 - max(w * zi for w, zi in zip(omega, z))
        assert wc.wfn == pytest.approx(wfn, abs=1e-12)
        assert wc.wfp == pytest.approx(wfp, abs=1e-12)

    def test_value_weights_never_exceed_classical(self, rng):
        for _ in range(50):
            series = make_series(rng)
            tau = float(rng.uniform(0.1, 0.9))
            cm = hard_confusion(series, tau)
            for spec in (
                ValueProdWeight(random_omega(rng, "prod")),
                ValueMaxWeight(random_omega(rng, "max")),
            ):
                wc = weighted_hard_confusion(series, tau, spec)
                assert wc.wfn <= cm.fn + 1e-12
                assert wc.wfp <= cm.fp + 1e-12

    def test_order_free_weights_are_permutation_invariant(self, rng):
        series = make_series(rng, n=12)
        perm = rng.permutation(series.n)
        shuffled = LabeledSeries(series.predictions[perm], series.labels[perm])
        tau = 0.5
        for spec in weight_menu(rng)[:3]:  # unit, cost, cross-entropy
            a = weighted_hard_confusion(series, tau, spec)
            b = weighted_hard_confusion(shuffled, tau, spec)
            assert a.wfp == pytest.approx(b.wfp, rel=1e-12)
            assert a.wfn == pytest.approx(b.wfn, rel=1e-12)

    def test_value_weights_generally_order_sensitive(self):
        # An alarm right before the miss changes the miss's weight.
        pairs = [(0.9, 0), (0.3, 1), (0.1, 0), (0.1, 0)]
        series = LabeledSeries.from_pairs(pairs)
        moved = LabeledSeries.from_pairs([pairs[2], pairs[3], pairs[1], pairs[0]])
        spec = ValueMaxWeight((0.5,))
        a = weighted_hard_confusion(series, 0.5, spec)
        b = weighted_hard_confusion(moved, 0.5, spec)
        assert a.wfn != b.wfn


def test_counts_must_be_non_negative():
    with pytest.raises(ValidationError, match="non-negative"):
        ConfusionCounts(tn=1, fp=-1, fn=0, tp=2)
