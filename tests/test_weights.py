import tracemalloc

import numpy as np
import pytest

from helpers import (
    future_labels,
    make_series,
    past_alarm_indicators,
    random_omega,
    reference_weight,
)
from wsol.confusion import hard_entries
from wsol.errors import ValidationError
from wsol.expected import expected_confusion
from wsol.loss import LossSpec, combined_loss, evaluate_loss
from wsol.scores import ScoreKind
from wsol.series import LabeledSeries
from wsol.threshold import ThresholdDistribution
from wsol.verify import PRIORS, weight_menu
from wsol.weights import (
    MAX_WEIGHT_PARAMETER,
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

    def test_negative_omega_entry_rejected(self):
        for cls in (ValueProdWeight, ValueMaxWeight):
            with pytest.raises(ValidationError, match="non-negative"):
                cls((0.5, -0.1))

    @pytest.mark.filterwarnings("error")
    def test_weight_parameters_up_to_the_bound_give_finite_losses(self, rng):
        # Past the bound the TSS and HSS partials overflow on a long series.
        past = float(np.nextafter(MAX_WEIGHT_PARAMETER, np.inf))
        for build in (CostWeight, CrossEntropyWeight):
            with pytest.raises(ValidationError, match="at most"):
                build(past, 1.0)
            with pytest.raises(ValidationError, match="at most"):
                build(1.0, past)
        series = make_series(rng, n=2000)
        for spec in (
            CostWeight(MAX_WEIGHT_PARAMETER, MAX_WEIGHT_PARAMETER),
            CrossEntropyWeight(MAX_WEIGHT_PARAMETER, MAX_WEIGHT_PARAMETER),
        ):
            for score in ScoreKind:
                value, grad = combined_loss(series, LossSpec(score, spec, PRIORS[0]))
                assert np.isfinite(value) and np.isfinite(grad.values).all()


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
        # A positive is never a false positive.
        np.testing.assert_array_equal(fp[series.labels == 1], 0.0)
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
    # The slopes take the lags one at a time: for each lag j inside the
    # record, one C-contiguous row over samples j..n-1.
    series = grid_series(rng, n)
    for length in (1, n, 3 * n, 20000):
        spec = cls(long_omega(cls, length, rng))
        for dist in PRIORS:
            p, a = series.predictions, dist.support[0]
            tied, rows = spec._lag_rows(p, a, series.pos)
            lags = []
            for j, coef, enters in rows:
                lags.append(j)
                assert coef.shape == enters.shape == (n - j,)
                assert coef.flags.c_contiguous and enters.flags.c_contiguous
            assert sorted(lags) == list(range(1, min(length, n - 1) + 1))
            assert tied.shape == (n,)


def lag_matrices(spec, p, a, pos):
    """The rows of ``_lag_rows`` stacked lag-major as (coef, enters, tied),
    coef and enters (T, n) with zeros before each lag's first sample."""
    tied, rows = spec._lag_rows(p, a, pos)
    window = min(spec.window, p.size - 1)
    coef = np.zeros((window, p.size))
    enters = np.zeros((window, p.size), dtype=bool)
    for j, c, e in rows:
        coef[j - 1, j:] = c
        enters[j - 1, j:] = e
    return coef, enters, tied


def sample_major_chain(p, a, window):
    """The chain marking as (n, window) arrays, a row per sample: the loop
    the lead counts of ``_chain_members`` are checked against."""
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
            lead, tied = _chain_members(p, a, window)
            ref_member, ref_tied = sample_major_chain(p, a, window)
            assert lead.shape == (n,)
            for j in range(1, window + 1):
                in_chain = lead[: n - j] >= j
                np.testing.assert_array_equal(in_chain, ref_member[j:, j - 1])
            np.testing.assert_array_equal(tied, ref_tied)
        omega = long_omega(ValueMaxWeight, window, rng)
        ref_coef = np.zeros(ref_member.shape)
        following = np.zeros(n)
        for j in range(window, 0, -1):
            here = ref_member[:, j - 1]
            ref_coef[:, j - 1] = np.where(here, omega[j - 1] - following, 0.0)
            following = np.where(here, omega[j - 1], following)
        coef, enters, tied = lag_matrices(ValueMaxWeight(omega), p, 0.0, series.pos)
        np.testing.assert_array_equal(coef, (ref_coef * pos[:, None]).T)
        np.testing.assert_array_equal(enters, (ref_member & pos[:, None]).T)
        np.testing.assert_array_equal(tied, ref_tied & pos)


def per_sample_chain_misses(spec, p, labels, a, cdf):
    """E[wFN] as the per-sample chain form: for each positive, 1 - F(p_i)
    less each chain member's telescoped coefficient times its cdf gap
    above F(p_i); under value_prod every lag in the record is a member
    with its own omega."""
    omega = spec.omega
    total = 0.0
    for i in np.flatnonzero(labels):
        members, top = [], a
        for j in range(1, min(len(omega), i) + 1):
            if isinstance(spec, ValueProdWeight) or p[i - j] > top:
                members.append(j)
                top = max(top, p[i - j])
        term = 1.0 - cdf[i]
        following = [omega[j - 1] for j in members[1:]] + [0.0]
        for j, after in zip(members, following):
            coef = omega[j - 1] - (0.0 if isinstance(spec, ValueProdWeight) else after)
            term -= coef * max(cdf[i - j] - cdf[i], 0.0)
        total += term
    return total


@pytest.mark.parametrize("cls", [ValueProdWeight, ValueMaxWeight])
@pytest.mark.parametrize("n", [2, 5, 40, 150])
def test_cdf_only_misses_match_the_chain_form(cls, n, rng):
    # Grid predictions tie often, within the window and with the support
    # bound's neighbours; windows reach up to and past the record start.
    priors = (
        ThresholdDistribution.uniform(),
        ThresholdDistribution.uniform(0.3, 1.0),
        ThresholdDistribution.beta_prior(2.0, 2.0),
    )
    for dist in priors:
        a = dist.support[0]
        for length in sorted({1, 3, n - 1, n, 3 * n}):
            spec = cls(long_omega(cls, length, rng))
            labels = rng.integers(0, 2, size=n)
            p = rng.integers(int(10 * a) + 1, 10, size=n) / 10
            series = LabeledSeries(p, labels)
            cdf = dist.cdf(p)
            _, e_wfn = spec.expected_errors(series, dist, cdf)
            ref = per_sample_chain_misses(spec, p, labels, a, cdf)
            assert e_wfn == pytest.approx(ref, rel=0, abs=1e-12)


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


def traced_peak(call) -> int:
    """Peak bytes that ``call()`` allocates, numpy arrays included."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("window", [20, 200, 1000])
def test_value_slopes_take_memory_linear_in_n(window, rng):
    # The slopes take one lag at a time, and the value_max chain is one
    # lead count per sample, so a value gradient needs no more than twice
    # the memory of the value, plus 1 MB, at any window.
    n = 20_000
    series = LabeledSeries(rng.uniform(0.01, 0.99, n), rng.integers(0, 2, n))
    for cls in (ValueProdWeight, ValueMaxWeight):
        spec = LossSpec(ScoreKind.TSS, cls(long_omega(cls, window, rng)), PRIORS[0])
        ev = evaluate_loss(series, spec)
        value_peak = traced_peak(lambda: evaluate_loss(series, spec).value)
        assert traced_peak(ev.gradient) <= 2 * value_peak + 2**20


@pytest.mark.parametrize("k", [0, 1, 3, 4], ids=["unit", "cost", "prod", "max"])
def test_slopes_are_the_hard_matrix_jumps(k, rng):
    # A weight that does not depend on the predictions: each slope is the
    # drop of its hard entry as the threshold rises through that prediction.
    for _ in range(10):
        series = make_series(rng)
        spec = weight_menu(rng)[k]
        p = series.predictions
        delta = np.min(np.diff(np.sort(p))) / 3
        assert delta > 0.0
        below = hard_entries(series, p - delta, spec)[:, 1]
        above = hard_entries(series, p + delta, spec)[:, 1]
        jump = below - above
        fp_slope, fn_slope, kinks = spec.error_slopes(series, PRIORS[0])
        assert kinks == set()
        np.testing.assert_allclose(fp_slope, jump[1], rtol=0, atol=1e-12)
        np.testing.assert_allclose(fn_slope, jump[2], rtol=0, atol=1e-12)
        np.testing.assert_array_equal(jump[0], -series.neg)
        np.testing.assert_array_equal(jump[3], series.pos)


@pytest.mark.parametrize("k", range(5), ids=["unit", "cost", "ce", "prod", "max"])
def test_slopes_times_density_are_entry_derivatives(k, rng):
    # Central differences of every expected entry against its slope times
    # the prior density: Beta(2, 2), or the uniform prior cross-entropy needs.
    step = 1e-6
    for _ in range(5):
        series = make_series(rng)
        spec = weight_menu(rng)[k]
        dist = PRIORS[0] if k == 2 else PRIORS[1]
        fp_slope, fn_slope, _ = spec.error_slopes(series, dist)
        slopes = np.stack([-series.neg, fp_slope, fn_slope, series.pos])
        analytic = slopes * dist.pdf(series.predictions)
        fd = np.empty_like(analytic)
        for i in range(series.n):
            sides = []
            for shift in (step, -step):
                p = series.predictions.copy()
                p[i] += shift
                moved = series.with_predictions(p)
                sides.append(expected_confusion(moved, dist, spec).entries())
            fd[:, i] = (np.array(sides[0]) - np.array(sides[1])) / (2 * step)
        rel = np.abs(fd - analytic) / np.maximum(np.abs(analytic), 1.0)
        assert rel.max() < 1e-5
