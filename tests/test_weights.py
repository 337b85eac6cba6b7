import numpy as np
import pytest

from helpers import (
    future_labels,
    make_series,
    past_alarm_indicators,
    random_omega,
    reference_weight,
)
from wsol.errors import ValidationError
from wsol.loss import LossSpec, combined_loss
from wsol.scores import ScoreKind
from wsol.series import LabeledSeries
from wsol.verify import PRIORS
from wsol.weights import (
    CostWeight,
    CrossEntropyWeight,
    UnitWeight,
    ValueMaxWeight,
    ValueProdWeight,
    _chain_members,
    eval_weight,
)


class TestValidation:
    def test_omega_must_be_non_increasing(self):
        with pytest.raises(ValidationError):
            ValueProdWeight((0.1, 0.3))
        with pytest.raises(ValidationError):
            ValueMaxWeight((0.2, 0.5))

    def test_prod_l1_constraint(self):
        with pytest.raises(ValidationError):
            ValueProdWeight((0.6, 0.4))
        ValueProdWeight((0.5, 0.4))  # sum 0.9 is fine

    def test_max_sup_constraint(self):
        with pytest.raises(ValidationError):
            ValueMaxWeight((1.0, 0.5))
        ValueMaxWeight((0.99, 0.5))

    def test_cost_non_negative(self):
        with pytest.raises(ValidationError):
            CostWeight(c01=-1.0, c10=2.0)

    def test_cross_entropy_strictly_positive(self):
        with pytest.raises(ValidationError):
            CrossEntropyWeight(omega0=0.0, omega1=1.0)

    def test_empty_omega_rejected(self):
        with pytest.raises(ValidationError):
            ValueMaxWeight(())


class TestEval:
    def test_unit_is_one(self, rng):
        series = make_series(rng)
        assert eval_weight(UnitWeight(), 0.5, 3, series) == 1.0

    def test_cost_reads_label(self):
        series = LabeledSeries(np.array([0.4, 0.6]), np.array([1, 0]))
        spec = CostWeight(c01=1.0, c10=5.0)
        assert eval_weight(spec, 0.5, 0, series) == 5.0
        assert eval_weight(spec, 0.5, 1, series) == 1.0

    def test_value_max_window_example(self):
        # Positive sample with past predictions (0.9, 0.2) in lag order at
        # tau 0.5: indicator window (1, 0), weight 1 - max(0.5, 0) = 0.5.
        series = LabeledSeries(np.array([0.2, 0.9, 0.4]), np.array([0, 0, 1]))
        spec = ValueMaxWeight((0.5, 0.3))
        assert eval_weight(spec, 0.5, 2, series) == pytest.approx(0.5)

    def test_value_weights_in_unit_interval(self, rng):
        for _ in range(60):
            series = make_series(rng)
            tau = float(rng.uniform(0.05, 0.95))
            i = int(rng.integers(0, series.n))
            for spec in (
                ValueProdWeight(random_omega(rng, "prod")),
                ValueMaxWeight(random_omega(rng, "max")),
            ):
                w = eval_weight(spec, tau, i, series)
                assert 0.0 < w <= 1.0

    def test_zero_omega_reduces_to_unit(self, rng):
        series = make_series(rng)
        for spec in (ValueProdWeight((0.0, 0.0)), ValueMaxWeight((0.0,))):
            for i in range(series.n):
                assert eval_weight(spec, 0.5, i, series) == 1.0

    def test_unit_cost_equivalence(self, rng):
        series = make_series(rng)
        spec = CostWeight(c01=1.0, c10=1.0)
        for i in range(series.n):
            assert eval_weight(spec, 0.5, i, series) == 1.0

    def test_cross_entropy_grows_unboundedly(self):
        # Negative-label weight grows monotonically as the prediction
        # approaches 1; no finite bound is asserted.
        spec = CrossEntropyWeight(omega0=1.0, omega1=1.0)
        values = []
        for p in (0.5, 0.9, 0.99, 0.999, 0.999999):
            series = LabeledSeries(np.array([p]), np.array([0]))
            values.append(eval_weight(spec, 0.5, 0, series))
        assert all(b > a for a, b in zip(values, values[1:]))


class TestWindows:
    def test_future_labels_pads_with_zero(self):
        series = LabeledSeries(
            np.array([0.4, 0.5, 0.6]), np.array([0, 1, 1])
        )
        np.testing.assert_array_equal(future_labels(series, 1, 4), [1, 0, 0, 0])
        np.testing.assert_array_equal(future_labels(series, 2, 2), [0, 0])

    def test_past_alarms_pad_with_zero(self):
        series = LabeledSeries(np.array([0.9, 0.1, 0.7]), np.array([0, 0, 1]))
        np.testing.assert_array_equal(
            past_alarm_indicators(series, 2, 4, 0.5), [0, 1, 0, 0]
        )
        np.testing.assert_array_equal(past_alarm_indicators(series, 0, 3, 0.5), [0, 0, 0])

    def test_window_longer_than_series_is_padded(self):
        series = LabeledSeries(np.array([0.6, 0.4]), np.array([0, 1]))
        w = eval_weight(ValueMaxWeight((0.5, 0.4, 0.3, 0.2)), 0.5, 1, series)
        assert w == pytest.approx(0.5)


FACTOR_SPECS = [
    UnitWeight(),
    CostWeight(c01=0.7, c10=2.5),
    CrossEntropyWeight(omega0=0.8, omega1=1.7),
    ValueProdWeight((0.3, 0.25, 0.2, 0.1)),
    ValueMaxWeight((0.6, 0.6, 0.3, 0.1)),
]


@pytest.mark.parametrize("spec", FACTOR_SPECS, ids=lambda s: s.name)
def test_factor_methods_match_eval_weight(spec, rng):
    # The factors over a whole alarm matrix, and eval_weight's read of one
    # sample, equal the per-sample definition.  Predictions on a coarse grid
    # tie with each other and with the thresholds; short series put most
    # windows across the record start.
    grid = np.array([0.2, 0.35, 0.5, 0.65, 0.8])
    taus = np.append(grid, [0.1, 0.9])
    for _ in range(30):
        n = int(rng.integers(1, 12))
        series = LabeledSeries(rng.choice(grid, size=n), rng.integers(0, 2, size=n))
        fp = spec.fp_factors(series)
        alarm = series.predictions[:, None] > taus
        fn = np.broadcast_to(spec.fn_factors(series, alarm), alarm.shape)
        for i in range(n):
            for b, tau in enumerate(taus):
                got = fn[i, b] if series.labels[i] == 1 else fp[i]
                ref = reference_weight(spec, float(tau), i, series)
                assert got == pytest.approx(ref, abs=1e-15)
                assert eval_weight(spec, float(tau), i, series) == got


def grid_series(rng, n: int) -> LabeledSeries:
    """n samples with predictions on a coarse grid, so they tie and kinks occur;
    both classes once n > 1."""
    labels = np.arange(n) % 2 if n > 1 else np.array([1])
    rng.shuffle(labels)
    return LabeledSeries(rng.integers(1, 10, size=n) / 10, labels)


def long_omega(cls, length: int, rng) -> tuple[float, ...]:
    """A valid non-increasing omega of any length for ``cls``."""
    raw = np.sort(rng.uniform(0.05, 1.0, size=length))[::-1]
    return tuple(raw * (0.9 / (raw.sum() if cls is ValueProdWeight else raw[0])))


@pytest.mark.parametrize("cls", [ValueProdWeight, ValueMaxWeight])
@pytest.mark.parametrize("n", [1, 2, 5, 50])
def test_closed_form_terms_have_one_column_per_lag(cls, n, rng):
    # The lag terms are lag-major: one C-contiguous (n,) row per lag.
    series = grid_series(rng, n)
    for length in (1, n, 3 * n, 20000):
        spec = cls(long_omega(cls, length, rng))
        for dist in PRIORS:
            _, coef, enters, _ = spec.closed_form_terms(series, dist)
            assert coef.shape == enters.shape == (min(length, n - 1), n)
            assert coef.flags.c_contiguous and enters.flags.c_contiguous


def sample_major_chain(p, a, window):
    """The chain marking as (n, window) arrays, a row per sample: the loop
    the lag-major ``_chain_members`` is checked against."""
    n = p.size
    member = np.zeros((n, window), dtype=bool)
    tied = np.zeros(n, dtype=bool)
    top = np.full(n, float(a))
    for j in range(1, window + 1):
        past = p[: n - j]
        member[j:, j - 1] = past > top[j:]
        tied[j:] |= past == top[j:]
        np.maximum(top[j:], past, out=top[j:])
    return member, tied


@pytest.mark.parametrize("n", [2, 5, 50, 700])
def test_lag_major_terms_transpose_the_sample_major_loop(n, rng):
    # Grid predictions tie often, and a window of n - 1 lags reaches before
    # the record start from every sample but the last.  The value_max
    # coefficients (under the uniform prior, so a = 0, the last marking
    # checked) are the backward scan's selected values, bit for bit, zeroed
    # on negatives.
    series = grid_series(rng, n)
    p = series.predictions
    pos = series.labels == 1
    for window in sorted({1, min(3, n - 1), n - 1}):
        for a in (0.3, 0.0):
            member, tied = _chain_members(p, a, window)
            ref_member, ref_tied = sample_major_chain(p, a, window)
            np.testing.assert_array_equal(member, ref_member.T)
            np.testing.assert_array_equal(tied, ref_tied)
        omega = long_omega(ValueMaxWeight, window, rng)
        ref_coef = np.zeros(ref_member.shape)
        following = np.zeros(n)
        for j in range(window, 0, -1):
            here = ref_member[:, j - 1]
            ref_coef[:, j - 1] = np.where(here, omega[j - 1] - following, 0.0)
            following = np.where(here, omega[j - 1], following)
        terms = ValueMaxWeight(omega).closed_form_terms(series, PRIORS[0])
        np.testing.assert_array_equal(terms[1], (ref_coef * pos[:, None]).T)
        np.testing.assert_array_equal(terms[2], (ref_member & pos[:, None]).T)
        np.testing.assert_array_equal(terms[3], ref_tied & pos)


@pytest.mark.parametrize("cls", [ValueProdWeight, ValueMaxWeight])
@pytest.mark.parametrize("n", [1, 2, 5, 50])
def test_lags_past_the_record_change_nothing(cls, n, rng):
    # Loss, gradient and kinks equal those of the omega cut to the n - 1
    # lags the series has (one entry at n = 1, the shortest valid omega).
    series = grid_series(rng, n)
    score = ScoreKind.TSS if n > 1 else ScoreKind.NEG_ERROR_SUM
    for length in sorted({1, max(n - 1, 1), n, 3 * n, 20000}):
        omega = long_omega(cls, length, rng)
        for dist in PRIORS:
            value, grad = combined_loss(series, LossSpec(score, cls(omega), dist))
            cut_value, cut_grad = combined_loss(
                series, LossSpec(score, cls(omega[: max(n - 1, 1)]), dist)
            )
            assert value == cut_value
            np.testing.assert_array_equal(grad.values, cut_grad.values)
            assert grad.kink_indices == cut_grad.kink_indices
