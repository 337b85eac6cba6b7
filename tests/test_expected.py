import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_series, random_omega, weight_menu
from wsol.errors import UnsupportedCombinationError, ValidationError
from wsol.expected import (
    ExpectedConfusion,
    expected_confusion,
    expected_tp_tn,
    expected_wfn,
    expected_wfp,
)
from wsol.oracle import exact_expected_confusion, mc_expected_confusion
from wsol.series import LabeledSeries
from wsol.threshold import ThresholdDistribution
from wsol.weights import (
    CostWeight,
    CrossEntropyWeight,
    UnitWeight,
    ValueMaxWeight,
    ValueProdWeight,
    _chain_members,
)


def single(pred, label):
    return LabeledSeries(np.array([pred]), np.array([label]))


def entry_diff(a, b):
    return max(abs(x - y) for x, y in zip(a.entries(), b.entries()))


class TestCorrectEntries:
    def test_single_positive(self, uniform01):
        e_tp, _ = expected_tp_tn(single(0.7, 1), uniform01)
        assert e_tp == pytest.approx(0.7, abs=1e-15)

    def test_single_negative(self, uniform01):
        _, e_tn = expected_tp_tn(single(0.7, 0), uniform01)
        assert e_tn == pytest.approx(0.3, abs=1e-15)

    def test_matches_monte_carlo_under_beta(self, rng, beta22):
        series = make_series(rng, n=20)
        e_tp, e_tn = expected_tp_tn(series, beta22)
        mean, se = mc_expected_confusion(series, beta22, UnitWeight(), 1_000_000, 3)
        assert abs(e_tp - mean.e_tp) < 3 * se.e_tp
        assert abs(e_tn - mean.e_tn) < 3 * se.e_tn

    def test_unit_entries_partition_the_classes(self, rng, both_priors):
        for dist in both_priors:
            series = make_series(rng)
            exp = expected_confusion(series, dist, UnitWeight())
            n_pos = int(series.labels.sum())
            assert exp.e_tp + exp.e_wfn == pytest.approx(n_pos, abs=1e-12)
            assert exp.e_tn + exp.e_wfp == pytest.approx(series.n - n_pos, abs=1e-12)


class TestErrorEntries:
    def test_unit_false_positive(self, uniform01):
        assert expected_wfp(single(0.6, 0), uniform01, UnitWeight()) == pytest.approx(
            0.6, abs=1e-15
        )

    def test_unit_false_negative(self, uniform01):
        assert expected_wfn(single(0.3, 1), uniform01, UnitWeight()) == pytest.approx(
            0.7, abs=1e-15
        )

    def test_cross_entropy_false_positive_is_log_complement(self, uniform01):
        spec = CrossEntropyWeight(omega0=1.0, omega1=1.0)
        assert expected_wfp(single(0.5, 0), uniform01, spec) == pytest.approx(
            np.log(2.0), abs=1e-15
        )

    def test_cross_entropy_gated_to_uniform01(self, beta22):
        spec = CrossEntropyWeight(omega0=1.0, omega1=1.0)
        with pytest.raises(UnsupportedCombinationError):
            expected_wfp(single(0.5, 0), beta22, spec)
        with pytest.raises(UnsupportedCombinationError):
            expected_wfn(
                single(0.5, 1), ThresholdDistribution.uniform(0.2, 0.8), spec
            )

    def test_prod_window_hand_case(self, uniform01):
        # Window (0.9, 0.2) in lag order, current prediction 0.5,
        # omega (0.4, 0.2): 1 - 0.5 - 0.4*(0.9-0.5) - 0.2*0 = 0.34.
        series = LabeledSeries(
            np.array([0.3, 0.2, 0.9, 0.5]), np.array([0, 0, 0, 1])
        )
        spec = ValueProdWeight((0.4, 0.2))
        assert expected_wfn(series, uniform01, spec) == pytest.approx(0.34, abs=1e-12)

    def test_cost_scaling_is_exact(self, rng, both_priors):
        for dist in both_priors:
            series = make_series(rng)
            unit = expected_confusion(series, dist, UnitWeight())
            cost = expected_confusion(series, dist, CostWeight(c01=2.0, c10=3.0))
            assert cost.e_wfp == 2.0 * unit.e_wfp
            assert cost.e_wfn == 3.0 * unit.e_wfn

    def test_past_below_current_contributes_nothing(self, uniform01):
        # Only past predictions above the current one reduce the entry.
        series = LabeledSeries(np.array([0.2, 0.3, 0.6]), np.array([0, 0, 1]))
        spec = ValueProdWeight((0.4, 0.2))
        assert expected_wfn(series, uniform01, spec) == pytest.approx(0.4, abs=1e-15)

    def test_prod_and_max_agree_for_single_lag(self, rng, both_priors):
        for dist in both_priors:
            series = make_series(rng)
            w1 = float(rng.uniform(0.05, 0.9))
            prod = expected_wfn(series, dist, ValueProdWeight((w1,)))
            vmax = expected_wfn(series, dist, ValueMaxWeight((w1,)))
            assert prod == pytest.approx(vmax, abs=1e-14)

    def test_zero_omega_equals_unit(self, rng, both_priors):
        for dist in both_priors:
            series = make_series(rng)
            unit = expected_confusion(series, dist, UnitWeight())
            zeroed = expected_confusion(series, dist, ValueMaxWeight((0.0, 0.0)))
            assert entry_diff(unit, zeroed) == 0.0

    def test_value_entries_never_exceed_unit(self, rng, both_priors):
        for dist in both_priors:
            for _ in range(10):
                series = make_series(rng)
                unit = expected_confusion(series, dist, UnitWeight())
                spec = ValueProdWeight(random_omega(rng, "prod"))
                val = expected_confusion(series, dist, spec)
                assert val.e_wfn <= unit.e_wfn + 1e-12
                assert val.e_wfp <= unit.e_wfp + 1e-12


def chain_intervals(past, a=0.0):
    """(lag, lower, upper) of each chain member of a past window (nearest
    lag first), as the max closed form marks it: a member's interval runs
    from the previous member's prediction (``a`` for the first) to its own.
    """
    past = np.asarray(past, dtype=np.float64)
    lead = _chain_members(np.append(past[::-1], 1.0), a, past.size)[0][-2::-1]
    member = lead >= np.arange(1, past.size + 1)
    uppers = past[member]
    lowers = np.concatenate([[a], uppers[:-1]])
    return list(zip(np.flatnonzero(member) + 1, lowers, uppers))


class TestPowerIntervals:
    def test_single_past_sample(self):
        assert chain_intervals([0.4]) == [(1, 0.0, 0.4)]

    def test_first_interval_always_present(self, rng):
        for _ in range(50):
            past = rng.uniform(0.01, 0.99, size=int(rng.integers(1, 8)))
            lag, lower, _ = chain_intervals(past)[0]
            assert lag == 1 and lower == 0.0

    def test_chain_predictions_strictly_increase(self, rng):
        for _ in range(50):
            past = rng.uniform(0.01, 0.99, size=6)
            intervals = chain_intervals(past)
            lags = [lag for lag, _, _ in intervals]
            assert lags == sorted(set(lags))
            assert all(lower < upper for _, lower, upper in intervals)

    def test_definition_pointwise_on_random_windows(self, rng):
        # For sampled thresholds, membership in the decomposition must agree
        # with the defining conditions: the lag's prediction exceeds the
        # threshold and every nearer lag's does not.
        for _ in range(20):
            past = rng.uniform(0.05, 0.95, size=int(rng.integers(2, 7)))
            intervals = chain_intervals(past)
            for xi in rng.uniform(0.0, 1.0, size=500):
                above = [j + 1 for j, p in enumerate(past) if p > xi]
                containing = [lag for lag, lo, hi in intervals if lo <= xi < hi]
                if not above:
                    assert containing == []
                else:
                    assert containing == [min(above)]
            union = sum(upper - lower for _, lower, upper in intervals)
            assert union == pytest.approx(max(past), abs=1e-12)

    def test_ties_keep_earlier_lag(self):
        assert [lag for lag, _, _ in chain_intervals([0.5, 0.5, 0.7])] == [1, 3]


class TestOracleEquivalence:
    """The module's core property: three routes to the same matrix."""

    def test_closed_forms_match_exact_oracle(self, rng, both_priors):
        for dist in both_priors:
            for _ in range(12):
                series = make_series(rng, n=int(rng.integers(8, 50)))
                for spec in weight_menu(rng):
                    if spec.name == "cross_entropy" and dist.kind != "uniform":
                        continue
                    closed = expected_confusion(series, dist, spec)
                    exact = exact_expected_confusion(series, dist, spec)
                    assert entry_diff(closed, exact) < 1e-10

    def test_closed_forms_match_monte_carlo(self, rng, both_priors):
        for dist in both_priors:
            series = make_series(rng, n=25)
            for spec in weight_menu(rng):
                if spec.name == "cross_entropy" and dist.kind != "uniform":
                    continue
                closed = np.array(expected_confusion(series, dist, spec).entries())
                mean, se = mc_expected_confusion(series, dist, spec, 50_000, 11)
                pulls = np.abs(closed - np.array(mean.entries())) / np.maximum(
                    np.array(se.entries()), 1e-12
                )
                assert np.max(pulls) < 4.0

    def test_exact_under_tied_predictions(self, both_priors):
        # Ties between window predictions (and with the current prediction)
        # are value kinks but not value errors: the earlier lag carries the
        # whole interval, so the closed form must still be exact.
        series = LabeledSeries(
            np.array([0.6, 0.6, 0.3, 0.3, 0.6, 0.45]),
            np.array([0, 0, 1, 0, 0, 1]),
        )
        for dist in both_priors:
            for spec in (
                ValueMaxWeight((0.5, 0.4, 0.2)),
                ValueProdWeight((0.3, 0.2, 0.1)),
            ):
                closed = expected_confusion(series, dist, spec)
                exact = exact_expected_confusion(series, dist, spec)
                assert entry_diff(closed, exact) < 1e-12

    def test_restricted_uniform_support(self, rng):
        dist = ThresholdDistribution.uniform(0.2, 0.8)
        for _ in range(10):
            series = make_series(rng, lo=0.25, hi=0.75)
            for spec in (
                ValueProdWeight(random_omega(rng, "prod")),
                ValueMaxWeight(random_omega(rng, "max")),
            ):
                closed = expected_confusion(series, dist, spec)
                exact = exact_expected_confusion(series, dist, spec)
                assert entry_diff(closed, exact) < 1e-10


class TestValueGating:
    def test_prediction_outside_restricted_support(self):
        dist = ThresholdDistribution.uniform(0.3, 0.7)
        series = LabeledSeries(np.array([0.9, 0.5]), np.array([0, 1]))
        with pytest.raises(ValidationError, match="support"):
            expected_wfn(series, dist, ValueMaxWeight((0.5,)))
        with pytest.raises(ValidationError, match="support"):
            expected_wfp(series, dist, ValueProdWeight((0.5,)))


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.floats(min_value=0.02, max_value=0.98),
            st.integers(min_value=0, max_value=1),
        ),
        min_size=2,
        max_size=14,
    ),
    omega1=st.floats(min_value=0.0, max_value=0.45),
    omega2=st.floats(min_value=0.0, max_value=0.45),
    use_max=st.booleans(),
)
def test_closed_form_equals_exact_oracle_property(data, omega1, omega2, use_max):
    preds, labels = zip(*data)
    series = LabeledSeries(np.array(preds), np.array(labels))
    omega = tuple(sorted((omega1, omega2), reverse=True))
    spec = ValueMaxWeight(omega) if use_max else ValueProdWeight(omega)
    dist = ThresholdDistribution.uniform()
    closed = expected_confusion(series, dist, spec)
    exact = exact_expected_confusion(series, dist, spec)
    assert entry_diff(closed, exact) < 1e-10


def test_expected_confusion_assembles_entries(rng, uniform01):
    series = make_series(rng)
    spec = ValueProdWeight((0.3, 0.1))
    exp = expected_confusion(series, uniform01, spec)
    e_tp, e_tn = expected_tp_tn(series, uniform01)
    assert exp.e_tp == e_tp and exp.e_tn == e_tn
    assert exp.e_wfp == expected_wfp(series, uniform01, spec)
    assert exp.e_wfn == expected_wfn(series, uniform01, spec)


# Relative bound on every class sum against its exactly rounded value.  The
# terms are non-negative, so any summation order stays within (n - 1) u of
# the exact sum (1.1e-11 at n = 1e5, u = 2^-53), and blocked or pairwise
# sums land near sqrt(n) u (3.5e-14); 1e-12 lies between the two.
CLASS_SUM_RTOL = 1e-12


def value_miss_terms(spec, cdf: np.ndarray) -> np.ndarray:
    """Each sample's expected miss weight as a positive, 1 - F(p_i) less
    each lag's omega times the prior mass on which that lag alarms and no
    nearer one does (value_max) or on which it alarms (value_prod)."""
    n = cdf.size
    terms = 1.0 - cdf
    nearer = cdf.copy()  # the largest cdf of sample i and its nearer lags
    for j, w in enumerate(spec.omega[: n - 1], start=1):
        if spec.name == "value_max":
            terms[j:] -= w * np.maximum(cdf[: n - j] - nearer[j:], 0.0)
            np.maximum(nearer[j:], cdf[: n - j], out=nearer[j:])
        else:
            terms[j:] -= w * np.maximum(cdf[: n - j] - cdf[j:], 0.0)
    return terms


def test_class_sums_match_exactly_rounded_sums(both_priors):
    rng = np.random.default_rng(41)
    n = 100_000
    labels = (rng.random(n) < 0.3).astype(np.int64)
    series = LabeledSeries(rng.uniform(0.005, 0.995, n), labels)
    neg, pos = labels == 0, labels == 1
    for dist in both_priors:
        cdf = dist.cdf(series.predictions)
        tn, fp = math.fsum((1.0 - cdf)[neg]), math.fsum(cdf[neg])
        fn, tp = math.fsum((1.0 - cdf)[pos]), math.fsum(cdf[pos])
        for spec in weight_menu(rng):
            if spec.name == "cross_entropy" and dist.kind != "uniform":
                continue
            exp = expected_confusion(series, dist, spec)
            assert exp.e_tn == pytest.approx(tn, rel=CLASS_SUM_RTOL)
            assert exp.e_tp == pytest.approx(tp, rel=CLASS_SUM_RTOL)
            if spec.name in ("unit", "cost"):
                assert exp.e_wfp == pytest.approx(spec.c01 * fp, rel=CLASS_SUM_RTOL)
                assert exp.e_wfn == pytest.approx(spec.c10 * fn, rel=CLASS_SUM_RTOL)
            if spec.name in ("value_prod", "value_max"):
                wfn = math.fsum(value_miss_terms(spec, cdf)[pos])
                assert exp.e_wfn == pytest.approx(wfn, rel=CLASS_SUM_RTOL)


def test_entries_clamp_rounding_negatives_and_reject_real_ones():
    # A closed form that subtracts sums may round a zero entry just below 0.
    assert ExpectedConfusion(1.0, -1e-12, 0.5, 2.0).e_wfp == 0.0
    with pytest.raises(ValidationError, match="e_wfn is negative"):
        ExpectedConfusion(1.0, 0.0, -1e-6, 2.0)
