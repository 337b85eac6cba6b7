import numpy as np
import pytest

from helpers import make_series
from wsol import loss
from wsol.errors import ValidationError
from wsol.expected import expected_confusion
from wsol.loss import LossSpec, loss_gradient
from wsol.multilabel import (
    Aggregator,
    MultilabelSeries,
    MultilabelSpec,
    multilabel_global_score,
    multilabel_wsol,
    per_class_scores,
)
from wsol.oracle import exact_expected_confusion
from wsol.scores import ScoreKind, apply_score
from wsol.threshold import ThresholdDistribution
from wsol.weights import UnitWeight, ValueMaxWeight


def random_multilabel(rng, n=20, d=3) -> MultilabelSeries:
    preds = rng.uniform(0.05, 0.95, size=(n, d))
    labels = (rng.random((n, d)) < 0.4).astype(int)
    for j in range(d):
        if labels[:, j].sum() == 0:
            labels[rng.integers(0, n), j] = 1
        if labels[:, j].sum() == n:
            labels[rng.integers(0, n), j] = 0
    return MultilabelSeries(labels, preds)


def unit_spec(d, score=ScoreKind.TSS, aggregator=None):
    uni = ThresholdDistribution.uniform()
    return MultilabelSpec(
        class_specs=tuple((uni, UnitWeight()) for _ in range(d)),
        score=score,
        aggregator=aggregator or Aggregator("mean"),
    )


class TestValidation:
    def test_needs_two_classes(self, rng):
        with pytest.raises(ValidationError):
            MultilabelSeries(np.array([[0], [1]]), np.array([[0.4], [0.6]]))
        uni = ThresholdDistribution.uniform()
        with pytest.raises(ValidationError):
            MultilabelSpec(
                class_specs=((uni, UnitWeight()),),
                score=ScoreKind.TSS,
                aggregator=Aggregator("mean"),
            )

    def test_labels_and_predictions_must_be_congruent(self):
        with pytest.raises(ValidationError, match="congruent"):
            MultilabelSeries(np.array([[0, 1], [1, 0]]), np.full((2, 3), 0.5))
        with pytest.raises(ValidationError, match="congruent"):
            MultilabelSeries(np.array([0, 1]), np.array([0.4, 0.6]))
        assert MultilabelSeries(np.array([[0, 1], [1, 0]]), np.full((2, 2), 0.5)).n == 2

    def test_aggregator_weights(self):
        with pytest.raises(ValidationError):
            Aggregator("weighted_mean", weights=(0.5, 0.6))
        for empty in (None, ()):
            with pytest.raises(ValidationError, match="needs weights"):
                Aggregator("weighted_mean", weights=empty)
        with pytest.raises(ValidationError):
            Aggregator("mean", weights=(0.5, 0.5))
        with pytest.raises(ValidationError):
            Aggregator("median")

    def test_aggregator_weights_match_the_class_count(self):
        uni = ThresholdDistribution.uniform()
        with pytest.raises(ValidationError, match="class count"):
            MultilabelSpec(
                class_specs=((uni, UnitWeight()),) * 3,
                score=ScoreKind.TSS,
                aggregator=Aggregator("weighted_mean", weights=(0.5, 0.5)),
            )

    def test_spec_series_shape_mismatch(self, rng):
        ml = random_multilabel(rng, d=3)
        with pytest.raises(ValidationError):
            multilabel_global_score(ml, unit_spec(2))

    def test_columns_are_built_once(self, rng):
        ml = random_multilabel(rng)
        assert all(ml.column(j) is ml.column(j) for j in range(ml.num_classes))
        np.testing.assert_array_equal(ml.column(1).labels, ml.labels[:, 1])
        np.testing.assert_array_equal(ml.column(1).predictions, ml.predictions[:, 1])

    def test_samples_may_be_positive_in_several_classes(self):
        labels = np.array([[1, 1], [0, 1], [1, 0]])
        preds = np.full((3, 2), 0.5)
        ml = MultilabelSeries(labels, preds)
        assert ml.num_classes == 2


class TestGlobalScore:
    def test_duplicated_column_equals_binary(self, rng, uniform01):
        series = make_series(rng, n=15)
        ml = MultilabelSeries(
            np.stack([series.labels, series.labels], axis=1),
            np.stack([series.predictions, series.predictions], axis=1),
        )
        got = multilabel_global_score(ml, unit_spec(2))
        exp = expected_confusion(series, uniform01, UnitWeight())
        want = apply_score(ScoreKind.TSS, *exp.entries()).value
        assert got == pytest.approx(want, abs=1e-14)

    def test_min_bounds_every_class(self, rng):
        ml = random_multilabel(rng, d=4)
        spec = unit_spec(4, aggregator=Aggregator("min"))
        global_score = multilabel_global_score(ml, spec)
        scores = per_class_scores(ml, spec)
        assert np.all(global_score <= scores + 1e-15)

    def test_weighted_mean_matches_hand_combination(self, rng):
        ml = random_multilabel(rng, d=3)
        weights = (0.2, 0.3, 0.5)
        spec = unit_spec(3, aggregator=Aggregator("weighted_mean", weights=weights))
        scores = per_class_scores(ml, spec)
        assert multilabel_global_score(ml, spec) == pytest.approx(
            float(np.dot(weights, scores)), abs=1e-12
        )

    def test_mixed_priors_match_per_class_oracles(self, rng):
        ml = random_multilabel(rng, d=2)
        specs = (
            (ThresholdDistribution.uniform(), UnitWeight()),
            (ThresholdDistribution.beta_prior(2.0, 2.0), ValueMaxWeight((0.4, 0.2))),
        )
        spec = MultilabelSpec(
            class_specs=specs, score=ScoreKind.TSS, aggregator=Aggregator("mean")
        )
        scores = per_class_scores(ml, spec)
        for j, (dist, wspec) in enumerate(specs):
            exact = exact_expected_confusion(ml.column(j), dist, wspec)
            want = apply_score(ScoreKind.TSS, *exact.entries()).value
            assert scores[j] == pytest.approx(want, abs=1e-10)


class TestGradient:
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_mean_gradient_is_scaled_per_class(self, rng, d):
        ml = random_multilabel(rng, d=d)
        spec = unit_spec(d)
        value, grad = multilabel_wsol(ml, spec)
        assert value == pytest.approx(-multilabel_global_score(ml, spec), abs=1e-14)
        for j in range(d):
            per_class = loss_gradient(
                ml.column(j),
                LossSpec(ScoreKind.TSS, UnitWeight(), ThresholdDistribution.uniform()),
            )
            np.testing.assert_allclose(
                grad.values[:, j], per_class.values / d, atol=1e-12
            )

    def test_weighted_mean_gradient_matches_finite_differences(self, rng):
        # Per-class weights, priors and weight variants, with no tied
        # predictions, so every derivative is two-sided.
        ml = random_multilabel(rng, n=12, d=3)
        spec = MultilabelSpec(
            class_specs=(
                (ThresholdDistribution.uniform(), UnitWeight()),
                (ThresholdDistribution.beta_prior(2.0, 2.0), ValueMaxWeight((0.6, 0.3))),
                (ThresholdDistribution.uniform(0.02, 0.98), ValueMaxWeight((0.4,))),
            ),
            score=ScoreKind.TSS,
            aggregator=Aggregator("weighted_mean", weights=(0.2, 0.3, 0.5)),
        )
        _, grad = multilabel_wsol(ml, spec)
        assert not grad.nonsmooth
        step = 1e-6
        fd = np.empty_like(grad.values)
        for i, j in np.ndindex(*fd.shape):
            sides = []
            for shift in (step, -step):
                preds = ml.predictions.copy()
                preds[i, j] += shift
                sides.append(multilabel_wsol(MultilabelSeries(ml.labels, preds), spec)[0])
            fd[i, j] = (sides[0] - sides[1]) / (2 * step)
        rel = np.abs(fd - grad.values) / np.maximum(np.abs(grad.values), 1.0)
        assert rel.max() < 1e-5

    def test_column_independence(self, rng):
        ml = random_multilabel(rng, d=3)
        spec = unit_spec(3)
        base = per_class_scores(ml, spec)
        preds = ml.predictions.copy()
        preds[:, 1] = np.clip(preds[:, 1] * 0.5 + 0.1, 0.01, 0.99)
        bumped = per_class_scores(MultilabelSeries(ml.labels, preds), spec)
        assert bumped[0] == base[0] and bumped[2] == base[2]
        assert bumped[1] != base[1]

    def test_min_ignores_non_minimal_classes(self, rng):
        ml = random_multilabel(rng, d=3)
        spec = unit_spec(3, aggregator=Aggregator("min"))
        scores = per_class_scores(ml, spec)
        winner = int(np.argmin(scores))
        _, grad = multilabel_wsol(ml, spec)
        for j in range(3):
            if j != winner:
                assert np.all(grad.values[:, j] == 0.0)
        assert np.any(grad.values[:, winner] != 0.0)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_one_expected_matrix_per_class(self, rng, monkeypatch, d):
        calls = []

        def counting(*args):
            calls.append(args)
            return expected_confusion(*args)

        monkeypatch.setattr(loss, "expected_confusion", counting)
        multilabel_wsol(random_multilabel(rng, d=d), unit_spec(d))
        assert len(calls) == d

    def test_min_skips_inactive_degenerate_class(self):
        # Class 0 has no positives, so TSS is degenerate there (score 0) and
        # its partials are undefined; class 1 ranks backwards and is the min.
        ml = MultilabelSeries(
            np.array([[0, 1], [0, 1], [0, 0], [0, 0]]),
            np.array([[0.2, 0.2], [0.4, 0.3], [0.6, 0.7], [0.8, 0.8]]),
        )
        value, grad = multilabel_wsol(ml, unit_spec(2, aggregator=Aggregator("min")))
        assert value > 0.0
        assert np.all(grad.values[:, 0] == 0.0)
        assert np.any(grad.values[:, 1] != 0.0)

    def test_min_tie_flagged(self, rng, uniform01):
        series = make_series(rng, n=10)
        ml = MultilabelSeries(
            np.stack([series.labels, series.labels], axis=1),
            np.stack([series.predictions, series.predictions], axis=1),
        )
        _, grad = multilabel_wsol(ml, unit_spec(2, aggregator=Aggregator("min")))
        assert grad.nonsmooth

