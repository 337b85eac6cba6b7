import numpy as np
import pytest

from helpers import make_series, weight_menu
from wsol.errors import (
    DegenerateDenominatorError,
    UnsupportedCombinationError,
    ValidationError,
)
from wsol.expected import expected_confusion
from wsol.loss import (
    CombinedLossSpec,
    LossSpec,
    combined_loss,
    evaluate_loss,
    loss_gradient,
    loss_value,
)
from wsol.oracle import exact_expected_confusion
from wsol.scores import ScoreKind, apply_score
from wsol.series import LabeledSeries
from wsol.threshold import ThresholdDistribution
from wsol.verify import expected_score_gap, finite_diff_gradient
from wsol.weights import (
    CrossEntropyWeight,
    UnitWeight,
    ValueMaxWeight,
    ValueProdWeight,
    _chain_members,
)


class TestLossValue:
    def test_single_sample_linear_case(self, uniform01):
        series = LabeledSeries(np.array([0.6]), np.array([0]))
        spec = LossSpec(ScoreKind.NEG_ERROR_SUM, UnitWeight(), uniform01)
        assert loss_value(series, spec) == pytest.approx(0.6, abs=1e-15)

    def test_classical_cross_entropy_identity(self, rng, uniform01):
        spec = LossSpec(
            ScoreKind.NEG_ERROR_SUM, CrossEntropyWeight(1.0, 1.0), uniform01
        )
        for _ in range(10):
            series = make_series(rng)
            y = series.labels
            p = series.predictions
            ce = -float(np.sum((1 - y) * np.log1p(-p) + y * np.log(p)))
            assert loss_value(series, spec) == pytest.approx(ce, abs=1e-12)

    def test_weighted_cross_entropy_identity(self, rng, uniform01):
        for _ in range(20):
            w0, w1 = rng.uniform(0.01, 5.0, size=2)
            spec = LossSpec(
                ScoreKind.NEG_ERROR_SUM, CrossEntropyWeight(w0, w1), uniform01
            )
            series = make_series(rng)
            y = series.labels
            p = series.predictions
            ref = -float(np.sum(w0 * (1 - y) * np.log1p(-p) + w1 * y * np.log(p)))
            assert loss_value(series, spec) == pytest.approx(ref, abs=1e-12)

    def test_matches_exact_oracle_expected_matrix(self, rng, uniform01):
        series = make_series(rng, n=30)
        spec = LossSpec(ScoreKind.TSS, ValueMaxWeight((0.5, 0.3, 0.1)), uniform01)
        exact = exact_expected_confusion(series, uniform01, spec.weights)
        ref = -apply_score(spec.score, *exact.entries()).value
        assert loss_value(series, spec) == pytest.approx(ref, abs=1e-10)

    def test_cross_entropy_weights_need_uniform_prior(self, beta22):
        with pytest.raises(UnsupportedCombinationError):
            LossSpec(ScoreKind.TSS, CrossEntropyWeight(1.0, 1.0), beta22)

    def test_degenerate_score_flagged(self, uniform01):
        series = LabeledSeries(np.array([0.4, 0.6]), np.array([1, 1]))
        spec = LossSpec(ScoreKind.TSS, UnitWeight(), uniform01)
        (res,) = evaluate_loss(series, spec).results
        assert res.degenerate and res.value == 0.0


class TestGradient:
    def test_linear_unit_sign_pattern(self, rng, uniform01):
        series = make_series(rng)
        spec = LossSpec(ScoreKind.NEG_ERROR_SUM, UnitWeight(), uniform01)
        grad = loss_gradient(series, spec)
        expected = np.where(series.labels == 0, 1.0, -1.0)
        np.testing.assert_allclose(grad.values, expected, atol=1e-14)

    def test_cross_entropy_gradient_formula(self, rng, uniform01):
        series = make_series(rng)
        spec = LossSpec(
            ScoreKind.NEG_ERROR_SUM, CrossEntropyWeight(1.0, 1.0), uniform01
        )
        y = series.labels
        p = series.predictions
        expected = (1 - y) / (1 - p) - y / p
        np.testing.assert_allclose(
            loss_gradient(series, spec).values, expected, rtol=1e-12
        )

    def test_matches_finite_differences_many_specs(self, rng, both_priors):
        scores = list(ScoreKind)
        checked = 0
        k = 0
        while checked < 40:
            k += 1
            series = make_series(rng, n=int(rng.integers(6, 18)))
            spec_w = weight_menu(rng)[k % 5]
            dist = both_priors[k % 2]
            if spec_w.name == "cross_entropy" and dist.kind != "uniform":
                dist = both_priors[0]
            spec = LossSpec(scores[k % len(scores)], spec_w, dist)
            grad = loss_gradient(series, spec)
            if grad.nonsmooth:
                continue
            checked += 1
            fd = finite_diff_gradient(series, spec, step=1e-6)
            scale = np.maximum(np.abs(grad.values), 1.0)
            assert np.max(np.abs(grad.values - fd.values) / scale) < 1e-5

    def test_kink_flagged_on_window_tie(self, uniform01):
        # A past prediction exactly equal to the positive's prediction.
        series = LabeledSeries(np.array([0.5, 0.5]), np.array([0, 1]))
        spec = LossSpec(ScoreKind.NEG_ERROR_SUM, ValueProdWeight((0.4,)), uniform01)
        grad = loss_gradient(series, spec)
        assert grad.nonsmooth and grad.kink_indices == (0, 1)

    def test_chain_tie_flagged_for_max_weights(self, uniform01):
        series = LabeledSeries(
            np.array([0.6, 0.6, 0.3]), np.array([0, 0, 1])
        )
        spec = LossSpec(
            ScoreKind.NEG_ERROR_SUM, ValueMaxWeight((0.5, 0.4)), uniform01
        )
        assert loss_gradient(series, spec).nonsmooth

    @pytest.mark.parametrize(
        "weights",
        [
            ValueProdWeight((0.3, 0.2, 0.15, 0.1, 0.05)),
            ValueMaxWeight((0.5, 0.4, 0.3, 0.2, 0.1)),
        ],
        ids=lambda w: w.name,
    )
    def test_windows_across_record_start_are_not_kinks(self, weights, both_priors):
        # Positives at i < T with distinct predictions: lags before the
        # record start are absent, so nothing ties with them.
        series = LabeledSeries(
            np.array([0.3, 0.7, 0.45, 0.9, 0.2]), np.array([1, 1, 0, 1, 0])
        )
        for dist in both_priors:
            grad = loss_gradient(series, LossSpec(ScoreKind.TSS, weights, dist))
            assert grad.kink_indices == () and not grad.nonsmooth

    def test_degenerate_denominator_raises(self, uniform01):
        series = LabeledSeries(np.array([0.4, 0.6]), np.array([1, 1]))
        spec = LossSpec(ScoreKind.TSS, UnitWeight(), uniform01)
        with pytest.raises(DegenerateDenominatorError):
            loss_gradient(series, spec)

    def test_monotone_response_for_positive_predictions(self, rng, uniform01):
        # Raising a positive sample's prediction never increases the loss
        # under unit weights and a monotone score.
        for kind in (ScoreKind.TSS, ScoreKind.F1, ScoreKind.ACCURACY):
            for _ in range(20):
                series = make_series(rng, hi=0.9)
                spec = LossSpec(kind, UnitWeight(), uniform01)
                base = loss_value(series, spec)
                pos = np.flatnonzero(series.labels == 1)
                i = int(pos[rng.integers(0, len(pos))])
                preds = series.predictions.copy()
                preds[i] = min(preds[i] + 0.05, 0.99)
                bumped = loss_value(series.with_predictions(preds), spec)
                assert bumped <= base + 1e-12


class TestCombined:
    def test_single_component_identity(self, rng, uniform01):
        series = make_series(rng)
        spec = LossSpec(ScoreKind.TSS, UnitWeight(), uniform01)
        combo = CombinedLossSpec(components=((spec, 1.0),))
        value, grad = combined_loss(series, combo)
        assert value == pytest.approx(loss_value(series, spec), abs=1e-15)
        np.testing.assert_allclose(grad.values, loss_gradient(series, spec).values)

    def test_duplicate_halves_equal_single(self, rng, uniform01):
        series = make_series(rng)
        spec = LossSpec(ScoreKind.HSS, UnitWeight(), uniform01)
        combo = CombinedLossSpec(components=((spec, 0.5), (spec, 0.5)))
        value, _ = combined_loss(series, combo)
        assert value == pytest.approx(loss_value(series, spec), abs=1e-14)

    def test_convex_mix_matches_hand_combination(self, rng, uniform01):
        series = make_series(rng)
        spec_a = LossSpec(ScoreKind.TSS, UnitWeight(), uniform01)
        spec_b = LossSpec(ScoreKind.HSS, UnitWeight(), uniform01)
        combo = CombinedLossSpec(components=((spec_a, 0.3), (spec_b, 0.7)))
        value, grad = combined_loss(series, combo)
        ref = 0.3 * loss_value(series, spec_a) + 0.7 * loss_value(series, spec_b)
        assert value == pytest.approx(ref, abs=1e-12)
        ref_grad = (
            0.3 * loss_gradient(series, spec_a).values
            + 0.7 * loss_gradient(series, spec_b).values
        )
        np.testing.assert_allclose(grad.values, ref_grad, atol=1e-12)

    def test_coefficients_must_be_convex(self, uniform01):
        spec = LossSpec(ScoreKind.TSS, UnitWeight(), uniform01)
        with pytest.raises(ValidationError):
            CombinedLossSpec(components=((spec, 0.5), (spec, 0.6)))
        with pytest.raises(ValidationError):
            CombinedLossSpec(components=((spec, -0.2), (spec, 1.2)))
        with pytest.raises(ValidationError):
            CombinedLossSpec(components=())


    def test_density_applied_once_per_component(self, rng, monkeypatch):
        series = make_series(rng)
        menu = weight_menu(rng)
        uniform = ThresholdDistribution.uniform()
        beta = ThresholdDistribution.beta_prior(2.0, 2.0)
        spec = CombinedLossSpec(
            (
                (LossSpec(ScoreKind.TSS, menu[0], beta), 0.3),
                (LossSpec(ScoreKind.F1, menu[2], uniform), 0.3),
                (LossSpec(ScoreKind.HSS, menu[4], beta), 0.4),
            )
        )
        calls = []
        pdf = ThresholdDistribution.pdf

        def counted(dist, x):
            calls.append(dist)
            return pdf(dist, x)

        monkeypatch.setattr(ThresholdDistribution, "pdf", counted)
        ev = evaluate_loss(series, spec)
        assert calls == []
        ev.gradient()
        assert calls == [beta, uniform, beta]

    def test_lag_terms_built_only_for_the_gradient(self, rng, monkeypatch):
        # The value and the expected matrices need the cdf alone; the slopes
        # are taken once per component, and the value_max chain once, when a
        # gradient is taken.
        series = make_series(rng)
        uniform = ThresholdDistribution.uniform()
        prod, maxw = ValueProdWeight((0.4, 0.2)), ValueMaxWeight((0.6, 0.3, 0.1))
        spec = CombinedLossSpec(
            (
                (LossSpec(ScoreKind.TSS, prod, uniform), 0.5),
                (LossSpec(ScoreKind.HSS, maxw, uniform), 0.5),
            )
        )
        built = []
        for cls in (ValueProdWeight, ValueMaxWeight):
            error_slopes = cls.error_slopes

            def counted(weight, series, dist, error_slopes=error_slopes):
                built.append(weight)
                return error_slopes(weight, series, dist)

            monkeypatch.setattr(cls, "error_slopes", counted)

        def counted_chain(p, a, window):
            built.append("chain")
            return _chain_members(p, a, window)

        monkeypatch.setattr("wsol.weights._chain_members", counted_chain)
        ev = evaluate_loss(series, spec)
        loss_value(series, spec)
        expected_confusion(series, uniform, prod)
        expected_confusion(series, uniform, maxw)
        assert built == []
        ev.gradient()
        assert built == [prod, maxw, "chain"]


class TestScoreGap:
    def test_linear_gap_vanishes_exactly(self, rng, both_priors):
        for dist in both_priors:
            series = make_series(rng)
            for wspec in weight_menu(rng):
                if wspec.name == "cross_entropy" and dist.kind != "uniform":
                    continue
                gap = expected_score_gap(
                    series, LossSpec(ScoreKind.NEG_ERROR_SUM, wspec, dist)
                )
                assert abs(gap.gap) < 1e-10
                assert gap.stderr == 0.0

    def test_linear_gap_within_mc_band(self, rng, uniform01):
        series = make_series(rng)
        spec = LossSpec(ScoreKind.NEG_ERROR_SUM, UnitWeight(), uniform01)
        gap = expected_score_gap(series, spec, mc_samples=30_000, seed=3)
        assert abs(gap.gap) < 4 * gap.stderr

    def test_nonlinear_gap_reported(self, rng, uniform01):
        series = make_series(rng, n=20)
        spec = LossSpec(ScoreKind.TSS, UnitWeight(), uniform01)
        gap = expected_score_gap(series, spec)
        assert np.isfinite(gap.gap)
        assert gap.score_of_expected == pytest.approx(
            apply_score(
                ScoreKind.TSS,
                *expected_confusion(series, uniform01, UnitWeight()).entries(),
            ).value
        )
