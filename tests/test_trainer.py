import json
from dataclasses import asdict

import numpy as np
import pytest

from helpers import weight_menu
from wsol import confusion, scores, trainer
from wsol.confusion import hard_confusion, hard_entries, weighted_hard_confusion
from wsol.errors import (
    DegenerateDenominatorError,
    TrainingDivergedError,
    ValidationError,
)
from wsol.loss import CombinedLossSpec, LossSpec, combined_loss, loss_value
from wsol.scores import ScoreKind, apply_score, score_array
from wsol.series import LabeledSeries
from wsol.threshold import ThresholdDistribution
from wsol.trainer import (
    MAX_SYNTH_FEATURES,
    MAX_SYNTH_SAMPLES,
    EpochRecord,
    MLPModel,
    SyntheticSeriesConfig,
    TrainConfig,
    _sigmoid,
    generate_temporal_dataset,
    sweep_report,
    sweep_thresholds,
    train,
)
from wsol.weights import (
    CrossEntropyWeight,
    UnitWeight,
    ValueMaxWeight,
    ValueProdWeight,
    _ValueWeight,
)


def looped_temporal_dataset(cfg):
    """The generator with its per-sample precursor loop: the reference."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n
    labels = np.zeros(n, dtype=np.int64)
    budget = int(rng.binomial(n, cfg.event_rate))
    guard = 0
    while budget > 0 and guard < 10000:
        guard += 1
        length = min(int(rng.geometric(0.5)), budget, 4)
        start = int(rng.integers(0, n))
        if start + length > n or labels[start : start + length].any():
            continue
        labels[start : start + length] = 1
        budget -= length
    x = rng.normal(0.0, cfg.noise, size=(n, cfg.features))
    lead = np.zeros(n)
    conc = np.zeros(n)
    decay = np.array([0.9**k for k in range(1, min(cfg.window, n) + 1)])
    for t in range(n):
        future = labels[t + 1 : t + 1 + cfg.window]
        if future.size:
            lead[t] = np.max(decay[: future.size] * future)
        conc[t] = labels[t]
    x[:, 0] += cfg.precursor_strength * lead
    x[:, 1] += 0.8 * cfg.precursor_strength * conc
    return x, labels


def ce_loss():
    return LossSpec(
        ScoreKind.NEG_ERROR_SUM,
        CrossEntropyWeight(1.0, 1.0),
        ThresholdDistribution.uniform(),
    )


class TestSyntheticData:
    def test_deterministic(self):
        cfg = SyntheticSeriesConfig(n=200, seed=7)
        a = generate_temporal_dataset(cfg)
        b = generate_temporal_dataset(cfg)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_positive_count_binomial(self):
        cfg = SyntheticSeriesConfig(n=400, event_rate=0.2, seed=3)
        _, labels = generate_temporal_dataset(cfg)
        mean = 400 * 0.2
        sigma = np.sqrt(400 * 0.2 * 0.8)
        assert abs(labels.sum() - mean) < 4 * sigma

    def test_zero_signal_features_are_uninformative(self):
        cfg = SyntheticSeriesConfig(n=400, precursor_strength=0.0, seed=5)
        x, labels = generate_temporal_dataset(cfg)
        for j in range(x.shape[1]):
            assert abs(np.corrcoef(x[:, j], labels)[0, 1]) < 0.15
        # A model trained on pure noise stays near zero skill.
        model = MLPModel.init((x.shape[1], 4, 1), seed=5)
        train(x, labels, model, TrainConfig(loss=ce_loss(), epochs=50, learning_rate=0.005, seed=5))
        series = LabeledSeries(model.forward(x), labels)
        best = max(
            (
                hard_confusion(series, t).tp / max(labels.sum(), 1)
                + hard_confusion(series, t).tn / max((1 - labels).sum(), 1)
                - 1.0
            )
            for t in np.arange(0.05, 1.0, 0.05)
        )
        assert best < 0.3

    @pytest.mark.parametrize(
        "n, window, event_rate, seed",
        [
            (200, 3, 0.2, 7),
            (300, 1, 0.5, 1),
            (40, 10**30, 0.3, 2),  # a window wider than the series
            (60, 5, 0.0, 3),  # no events
            (6, 4, 1.0, 4),  # all events
            (1, 3, 1.0, 5),
            (500, 17, 0.05, 6),
        ],
    )
    def test_matches_per_sample_precursor_loop(self, n, window, event_rate, seed):
        cfg = SyntheticSeriesConfig(
            n=n, window=window, event_rate=event_rate, seed=seed
        )
        got = generate_temporal_dataset(cfg)
        if event_rate in (0.0, 1.0):
            assert np.all(got[1] == event_rate)
        for g, w in zip(got, looped_temporal_dataset(cfg)):
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("n, event_rate", [(200_000, 0.2), (2000, 1.0)])
    def test_labels_hold_the_drawn_positive_count(self, n, event_rate):
        # Burst placement may not give up before every drawn positive is
        # placed, on long series and on full ones.
        cfg = SyntheticSeriesConfig(n=n, event_rate=event_rate, seed=1)
        _, labels = generate_temporal_dataset(cfg)
        drawn = np.random.default_rng(1).binomial(n, event_rate)
        assert labels.sum() == drawn

    def test_window_wider_than_series_is_the_series_length(self):
        wide = generate_temporal_dataset(SyntheticSeriesConfig(n=50, window=10**30))
        snug = generate_temporal_dataset(SyntheticSeriesConfig(n=50, window=49))
        for got, want in zip(wide, snug):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize(
        "field, edge, past",
        [
            ("n", 1, 0),
            ("n", MAX_SYNTH_SAMPLES, MAX_SYNTH_SAMPLES + 1),
            ("features", 2, 1),
            ("features", MAX_SYNTH_FEATURES, MAX_SYNTH_FEATURES + 1),
            ("event_rate", 1.0, 1.5),
        ],
    )
    def test_size_bounds(self, field, edge, past):
        SyntheticSeriesConfig(**{field: edge})
        with pytest.raises(ValidationError, match=f"{field} must lie in"):
            SyntheticSeriesConfig(**{field: past})

    def test_noise_must_be_non_negative(self):
        SyntheticSeriesConfig(noise=0.0)
        with pytest.raises(ValidationError, match="noise must be non-negative"):
            SyntheticSeriesConfig(noise=-0.1)

    def test_sizes_must_be_whole_numbers(self):
        SyntheticSeriesConfig(n=80.0)
        with pytest.raises(ValidationError, match="n must be an integer"):
            SyntheticSeriesConfig(n=80.5)

    def test_events_arrive_in_bursts(self):
        cfg = SyntheticSeriesConfig(n=400, event_rate=0.2, seed=11)
        _, labels = generate_temporal_dataset(cfg)
        runs = np.diff(np.flatnonzero(np.diff(labels) != 0))
        assert labels.sum() > 0 and len(runs) > 0


class TestModel:
    def test_output_strictly_inside_unit_interval(self, rng):
        model = MLPModel.init((3, 5, 1), seed=0)
        x = rng.normal(size=(50, 3)) * 100
        preds = model.forward(x)
        assert np.all((preds > 0) & (preds < 1))

    def test_save_load_round_trip(self, tmp_path):
        model = MLPModel.init((3, 4, 1), seed=1)
        model.save(tmp_path / "ckpt.json")
        back = MLPModel.load(tmp_path / "ckpt.json")
        assert back.sizes == model.sizes
        for w1, w2 in zip(model.weights, back.weights):
            np.testing.assert_array_equal(w1, w2)

    def test_save_rejects_non_finite_parameters(self, tmp_path):
        model = MLPModel.init((3, 4, 1), seed=1)
        model.biases[0][2] = np.nan
        path = tmp_path / "ckpt.json"
        with pytest.raises(ValidationError, match="cannot write JSON"):
            model.save(path)
        assert not path.exists()

    def test_load_rejects_other_activations(self, tmp_path):
        path = tmp_path / "ckpt.json"
        MLPModel.init((3, 4, 1), seed=1).save(path)
        doc = json.loads(path.read_text())
        assert doc["activation"] == "tanh"
        path.write_text(json.dumps(dict(doc, activation="relu")))
        with pytest.raises(ValidationError, match="activation 'relu'"):
            MLPModel.load(path)

    @pytest.mark.parametrize(
        "edits,message",
        [
            ([("biases", 0, [0.0, float("nan"), 0.0, 0.0])], "non-finite"),
            ([("weights", 0, [0.1, 0.2, 0.3])], "must be 2-d"),
            ([("weights", 1, [[0.1]] * 3)], "takes 3 inputs"),
            ([("biases", 0, [0.0] * 3)], "bias must have shape"),
            ([("weights", 0, [[0.1, 0.2]] * 2 + [[0.3]])], "checkpoint parameters"),
            ([("biases", 0, [[0.0], "x"])], "checkpoint parameters"),
            (
                [("weights", 1, [[0.1, 0.2]] * 4), ("biases", 1, [0.0, 0.0])],
                "width 1",
            ),
        ],
        ids=[
            "nan",
            "weight-not-2d",
            "fan-in",
            "bias-length",
            "ragged-weight",
            "non-number-bias",
            "last-width",
        ],
    )
    def test_load_rejects_what_save_would_not_write(self, tmp_path, edits, message):
        # A saved (3, 4, 1) network with parameters replaced.  Python's JSON writer
        # and reader both take a bare NaN token, which ``save`` refuses.
        path = tmp_path / "ckpt.json"
        MLPModel.init((3, 4, 1), seed=1).save(path)
        doc = json.loads(path.read_text())
        for key, layer, value in edits:
            doc[key][layer] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=message):
            MLPModel.load(path)

    def test_load_needs_one_bias_per_weight_matrix(self, tmp_path):
        path = tmp_path / "ckpt.json"
        MLPModel.init((3, 4, 1), seed=1).save(path)
        doc = json.loads(path.read_text())
        path.write_text(json.dumps(dict(doc, biases=doc["biases"][:1])))
        with pytest.raises(ValidationError, match="one bias per weight matrix"):
            MLPModel.load(path)

    def test_backward_consumes_only_the_hidden_activations(self, rng):
        model = MLPModel.init((3, 5, 4, 1), seed=3)
        x = rng.normal(size=(40, 3))
        x_before = x.copy()
        fwd = model.propagate(x)
        hidden = [a.copy() for a in fwd.acts[1:]]
        output = fwd.output.copy()
        model.backward(fwd, rng.normal(size=40))
        np.testing.assert_array_equal(x, x_before)
        np.testing.assert_array_equal(fwd.output, output)
        for a, h in zip(fwd.acts[1:], hidden):
            np.testing.assert_array_equal(a, 1.0 - h * h)

    def test_init_shapes_validated(self):
        with pytest.raises(ValidationError):
            MLPModel.init((3, 4, 2), seed=0)

    @pytest.mark.parametrize(
        "sizes", [(2, 4, 1), (2, 4, 3, 1)], ids=["tanh", "tanh-two-hidden"]
    )
    def test_composed_gradient_matches_finite_differences(self, rng, sizes):
        # Backprop through model + loss against central differences over
        # every parameter of a network with tanh hidden layers.
        x = rng.normal(size=(12, 2))
        y = (rng.random(12) < 0.5).astype(int)
        y[0], y[1] = 1, 0
        for k, wspec in enumerate(weight_menu(rng)):
            dist = ThresholdDistribution.uniform()
            spec = LossSpec(list(ScoreKind)[k % 5], wspec, dist)
            model = MLPModel.init(sizes, seed=k)

            def composed_loss():
                preds = model.forward(x)
                return loss_value(LabeledSeries(preds, y), spec)

            preds = model.forward(x)
            from wsol.loss import loss_gradient

            dl = loss_gradient(LabeledSeries(preds, y), spec).values
            grad_w, grad_b = model.backward(model.propagate(x), dl)
            for arrs, grads in ((model.weights, grad_w), (model.biases, grad_b)):
                for arr, g in zip(arrs, grads):
                    flat = arr.ravel()
                    gflat = g.ravel()
                    for idx in range(0, flat.size, max(1, flat.size // 4)):
                        orig = flat[idx]
                        h = 1e-6
                        flat[idx] = orig + h
                        up = composed_loss()
                        flat[idx] = orig - h
                        down = composed_loss()
                        flat[idx] = orig
                        fd = (up - down) / (2 * h)
                        assert fd == pytest.approx(
                            gflat[idx], rel=1e-4, abs=1e-8
                        )


class TestTraining:
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("epochs", -1, "epochs and learning rate"),
            ("learning_rate", -0.5, "epochs and learning rate"),
            ("chunk", 0, "chunk length must be positive"),
        ],
    )
    def test_config_validated(self, field, value, message):
        with pytest.raises(ValidationError, match=message):
            TrainConfig(loss=ce_loss(), **{field: value})

    def test_zero_learning_rate_is_inert(self, rng):
        x = rng.normal(size=(30, 2))
        y = (rng.random(30) < 0.4).astype(int)
        y[0], y[1] = 1, 0
        model = MLPModel.init((2, 4, 1), seed=2)
        before = [w.copy() for w in model.weights]
        result = train(
            x, y, model, TrainConfig(loss=ce_loss(), epochs=5, learning_rate=0.0, seed=2)
        )
        for w0, w1 in zip(before, model.weights):
            np.testing.assert_array_equal(w0, w1)
        losses = {rec.loss for rec in result.history}
        assert len(losses) == 1

    def test_linearly_separable_reaches_full_accuracy(self, rng):
        n = 80
        y = (rng.random(n) < 0.5).astype(int)
        x = np.stack([y + 0.1 * rng.normal(size=n), rng.normal(size=n)], axis=1)
        model = MLPModel.init((2, 4, 1), seed=3)
        train(
            x, y, model, TrainConfig(loss=ce_loss(), epochs=200, learning_rate=0.01, seed=3)
        )
        preds = model.forward(x)
        assert np.mean((preds > 0.5) == y) == 1.0

    def test_bit_reproducible(self, rng):
        cfg = SyntheticSeriesConfig(n=120, seed=9)
        x, y = generate_temporal_dataset(cfg)
        spec = LossSpec(
            ScoreKind.TSS, ValueMaxWeight((0.5, 0.2)), ThresholdDistribution.uniform()
        )
        results = []
        for _ in range(2):
            model = MLPModel.init((x.shape[1], 6, 1), seed=4)
            res = train(
                x, y, model, TrainConfig(loss=spec, epochs=40, learning_rate=0.2, seed=4)
            )
            results.append(res)
        for w0, w1 in zip(results[0].model.weights, results[1].model.weights):
            np.testing.assert_array_equal(w0, w1)
        assert [r.loss for r in results[0].history] == [
            r.loss for r in results[1].history
        ]

    def test_divergence_aborts_with_epoch_index(self, rng):
        # The logistic output plus its saturating derivative make lr-driven
        # blowups freeze at finite weights, so the abort path is exercised
        # by non-finite arithmetic entering through the data.
        x = rng.normal(size=(20, 2))
        x[3, 1] = np.nan
        y = (rng.random(20) < 0.5).astype(int)
        y[0], y[1] = 1, 0
        model = MLPModel.init((2, 4, 1), seed=5)
        with pytest.raises(TrainingDivergedError) as excinfo:
            train(
                x,
                y,
                model,
                TrainConfig(loss=ce_loss(), epochs=50, learning_rate=0.1, seed=5),
            )
        assert excinfo.value.epoch == 0

    def test_length_mismatch_is_a_validation_error(self, rng):
        # Not divergence: the prediction check inside each epoch then
        # fails only on a NaN output.
        model = MLPModel.init((2, 4, 1), seed=5)
        x, y = np.zeros((5, 2)), np.array([0, 1, 0, 1])
        with pytest.raises(ValidationError, match="one row per label"):
            train(x, y, model, TrainConfig(ce_loss()))

    def test_report_threshold_at_a_float_edge_is_rejected(self, rng):
        # Beta(1e5, 1e-12) passes the shape checks, but its mean rounds to
        # 1.0, where no sample could raise an alarm.
        x = rng.normal(size=(20, 2))
        y = (rng.random(20) < 0.5).astype(int)
        y[0], y[1] = 1, 0
        dist = ThresholdDistribution.beta_prior(1e5, 1e-12)
        assert dist.mean() == 1.0
        spec = LossSpec(ScoreKind.NEG_ERROR_SUM, UnitWeight(), dist)
        model = MLPModel.init((2, 4, 1), seed=5)
        with pytest.raises(ValidationError, match=r"threshold must lie in \(0, 1\)"):
            train(x, y, model, TrainConfig(loss=spec, epochs=1))

    def test_combined_loss_trains(self, rng):
        x = rng.normal(size=(30, 2))
        y = (rng.random(30) < 0.4).astype(int)
        y[0], y[1] = 1, 0
        uni = ThresholdDistribution.uniform()
        combo = CombinedLossSpec(
            components=(
                (LossSpec(ScoreKind.TSS, UnitWeight(), uni), 0.5),
                (LossSpec(ScoreKind.HSS, UnitWeight(), uni), 0.5),
            )
        )
        model = MLPModel.init((2, 4, 1), seed=6)
        result = train(
            x, y, model, TrainConfig(loss=combo, epochs=10, learning_rate=0.2, seed=6)
        )
        # history reflects the post-update state, so the last record equals
        # the combined loss at the final parameters
        series = LabeledSeries(model.forward(x), y)
        value, _ = combined_loss(series, combo)
        assert result.history[-1].loss == pytest.approx(value, abs=1e-12)

    def test_chunked_training_runs(self, rng):
        cfg = SyntheticSeriesConfig(n=100, seed=13)
        x, y = generate_temporal_dataset(cfg)
        spec = LossSpec(
            ScoreKind.TSS, ValueMaxWeight((0.4,)), ThresholdDistribution.uniform()
        )
        model = MLPModel.init((x.shape[1], 4, 1), seed=7)
        result = train(
            x, y, model, TrainConfig(loss=spec, epochs=5, learning_rate=0.1, seed=7, chunk=32)
        )
        assert len(result.history) == 5

    @pytest.mark.parametrize("chunk", [None, 32], ids=["full", "chunked"])
    def test_backpropagates_each_forward_pass_at_most_once(self, monkeypatch, chunk):
        # backward overwrites the hidden activations it reads, so a pass
        # taken twice would give a wrong gradient the second time.
        x, y = generate_temporal_dataset(SyntheticSeriesConfig(n=100, seed=13))
        spec = LossSpec(
            ScoreKind.TSS, ValueMaxWeight((0.4,)), ThresholdDistribution.uniform()
        )
        passes = []
        backward = MLPModel.backward

        def recording(model, fwd, dloss_dpred):
            assert not any(fwd is seen for seen in passes)
            passes.append(fwd)
            return backward(model, fwd, dloss_dpred)

        monkeypatch.setattr(MLPModel, "backward", recording)
        model = MLPModel.init((x.shape[1], 4, 3, 1), seed=7)
        cfg = TrainConfig(loss=spec, epochs=5, learning_rate=0.1, chunk=chunk)
        train(x, y, model, cfg)
        if chunk is None:
            assert len(passes) == 5
        else:
            assert 0 < len(passes) <= 5 * 4


@pytest.mark.parametrize("epochs", [1, 3])
def test_value_fp_factors_built_once_per_run(monkeypatch, epochs):
    # The labels alone decide them: the step's loss, the report's loss and
    # the report's hard matrix share one build.
    x, y = generate_temporal_dataset(SyntheticSeriesConfig(n=100, seed=13))
    spec = LossSpec(
        ScoreKind.TSS, ValueMaxWeight((0.6, 0.3)), ThresholdDistribution.uniform()
    )
    built = []
    fp_build = _ValueWeight._window_fp_factors

    def counted(weight, series):
        built.append(series.n)
        return fp_build(weight, series)

    monkeypatch.setattr(_ValueWeight, "_window_fp_factors", counted)
    model = MLPModel.init((x.shape[1], 4, 1), seed=7)
    train(x, y, model, TrainConfig(loss=spec, epochs=epochs, learning_rate=0.1))
    assert built == [100]


@pytest.mark.parametrize(
    "weights", [ValueMaxWeight((0.6, 0.3, 0.1)), UnitWeight()], ids=["value_max", "unit"]
)
def test_epoch_report_matches_hard_entries(monkeypatch, weights):
    # The report reads one weighted column and scores it on floats; its
    # scores are those of the (4, 2, 1) hard matrix, bit for bit.
    x, y = generate_temporal_dataset(SyntheticSeriesConfig(n=100, seed=13))
    head = LossSpec(ScoreKind.TSS, weights, _BETA22)
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for module, name in (
        (scores, "score_array"),
        (trainer, "score_array"),
        (confusion, "hard_entries"),
        (trainer, "hard_entries"),
    ):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    model = MLPModel.init((x.shape[1], 4, 1), seed=7)
    (record,) = train(x, y, model, TrainConfig(loss=head, epochs=1)).history
    assert calls == []
    monkeypatch.undo()
    series = LabeledSeries(model.forward(x), y)
    entries = hard_entries(series, (head.dist.mean(),), weights)
    (classical,), (weighted,) = score_array(head.score, *entries)[0]
    assert np.float64(record.score_classical).tobytes() == classical.tobytes()
    assert np.float64(record.score_weighted).tobytes() == weighted.tobytes()


def reference_train(features, labels, model, cfg):
    """Each epoch recomputed from the public pieces, nothing reused.

    Every step runs its own forward pass, loss and a backward pass that
    recomputes the activations; every report builds the classical and the
    weighted hard matrix and the loss afresh.  Returns the history and
    the number of chunks skipped as degenerate.
    """
    head = cfg.loss.components[0][0]
    tau = head.dist.mean()
    n = labels.size
    step = cfg.chunk or n
    history = []
    skipped = 0
    for epoch in range(cfg.epochs):
        for lo in range(0, n, step):
            x = features[lo : lo + step]
            series = LabeledSeries(model.forward(x), labels[lo : lo + step])
            try:
                _, grad = combined_loss(series, cfg.loss)
            except DegenerateDenominatorError:
                skipped += 1
                continue
            grad_w, grad_b = model.backward(model.propagate(x), grad.values)
            for w, gw in zip(model.weights, grad_w):
                w -= cfg.learning_rate * gw
            for b, gb in zip(model.biases, grad_b):
                b -= cfg.learning_rate * gb
        series = LabeledSeries(model.forward(features), labels)
        cm = hard_confusion(series, tau)
        wc = weighted_hard_confusion(series, tau, head.weights)
        history.append(
            EpochRecord(
                epoch=epoch,
                loss=loss_value(series, cfg.loss),
                score_classical=apply_score(
                    head.score, cm.tn, cm.fp, cm.fn, cm.tp
                ).value,
                score_weighted=apply_score(
                    head.score, wc.tn, wc.wfp, wc.wfn, wc.tp
                ).value,
            )
        )
    return history, skipped


_UNIFORM = ThresholdDistribution.uniform()
_BETA22 = ThresholdDistribution.beta_prior(2.0, 2.0)


def _loss(kind, dist):
    weights = {
        "unit": UnitWeight(),
        "value_prod": ValueProdWeight((0.5, 0.2)),
        "value_max": ValueMaxWeight((0.6, 0.3, 0.1)),
    }
    if kind == "combined":
        return CombinedLossSpec(
            (
                (LossSpec(ScoreKind.TSS, weights["value_max"], dist), 0.6),
                (LossSpec(ScoreKind.HSS, weights["value_prod"], _UNIFORM), 0.4),
            )
        )
    return LossSpec(ScoreKind.TSS, weights[kind], dist)


class TestTrainMatchesReference:
    """train reuses the forward pass and, in full batch, the report; the
    histories and parameters stay exactly those of recomputing everything."""

    def _assert_same(self, x, y, loss, expect_skips=False, sizes=(4, 6, 1), **kw):
        cfg = TrainConfig(loss=loss, epochs=5, learning_rate=0.3, **kw)
        model = MLPModel.init(sizes, seed=3)
        ref_model = MLPModel.init(sizes, seed=3)
        history = train(x, y, model, cfg).history
        ref_history, skipped = reference_train(x, y, ref_model, cfg)
        assert history == ref_history
        for got, want in zip(
            (*model.weights, *model.biases), (*ref_model.weights, *ref_model.biases)
        ):
            np.testing.assert_array_equal(got, want)
        assert (skipped > 0) == expect_skips

    @pytest.mark.parametrize("prior", [_UNIFORM, _BETA22], ids=["uniform", "beta22"])
    @pytest.mark.parametrize("kind", ["unit", "value_prod", "value_max", "combined"])
    def test_full_batch(self, kind, prior):
        x, y = generate_temporal_dataset(SyntheticSeriesConfig(n=150, seed=21))
        self._assert_same(x, y, _loss(kind, prior))

    def test_chunks(self):
        x, y = generate_temporal_dataset(SyntheticSeriesConfig(n=150, seed=22))
        self._assert_same(x, y, _loss("value_max", _BETA22), chunk=40)

    def test_degenerate_chunk_is_skipped(self):
        x, y = generate_temporal_dataset(SyntheticSeriesConfig(n=150, seed=23))
        y = y.copy()
        y[:40] = 0
        self._assert_same(
            x, y, _loss("value_max", _UNIFORM), expect_skips=True, chunk=40
        )

    def test_degenerate_full_batch_is_skipped(self):
        x, _ = generate_temporal_dataset(SyntheticSeriesConfig(n=60, seed=24))
        y = np.zeros(60, dtype=np.int64)
        self._assert_same(x, y, _loss("value_max", _UNIFORM), expect_skips=True)

    def test_two_hidden_layers(self):
        x, y = generate_temporal_dataset(SyntheticSeriesConfig(n=150, seed=25))
        self._assert_same(x, y, _loss("combined", _UNIFORM), sizes=(4, 6, 3, 1))


def test_sigmoid_matches_sign_split_form():
    # The form split on the sign of z, one exp per branch: the reference
    # the single-expression sigmoid must reproduce bit for bit.
    z = np.concatenate(
        [
            [0.0, -0.0, 800.0, -800.0, 37.0, -37.0, 710.0, -745.0, np.inf, -np.inf],
            np.random.default_rng(5).normal(0.0, 20.0, 10_000),
        ]
    )
    want = np.empty_like(z)
    pos = z >= 0
    want[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    want[~pos] = ez / (1.0 + ez)
    np.testing.assert_array_equal(_sigmoid(z), want)


def sample_major_propagate(model, x):
    """The forward pass with (n, units) activations: the output and each
    layer's input, the reference for the (units, n) layout."""
    acts = [x]
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        acts.append(np.tanh(acts[-1] @ w + b))
    z = acts[-1] @ model.weights[-1] + model.biases[-1]
    return _sigmoid(z[:, 0]), acts


def sample_major_backward(model, output, acts, dloss_dpred):
    """The backward pass over (n, units) deltas, as ``sample_major_propagate``."""
    delta = (dloss_dpred * output * (1.0 - output))[:, None]
    layers = len(model.weights)
    grad_w = [None] * layers
    grad_b = [None] * layers
    grad_w[-1] = acts[-1].T @ delta
    grad_b[-1] = delta.sum(axis=0)
    for layer in range(layers - 2, -1, -1):
        h = acts[layer + 1]
        delta = (delta @ model.weights[layer + 1].T) * (1.0 - h**2)
        grad_w[layer] = acts[layer].T @ delta
        grad_b[layer] = delta.sum(axis=0)
    return grad_w, grad_b


def assert_close_to_scale(got, want, rel=1e-13):
    """Equal shapes, and every element within ``rel`` of the largest in ``want``:
    the two layouts sum the same terms in another order."""
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


class TestFeatureMajorLayout:
    """C-contiguous (units, n) activations give the sample-major pass's
    numbers up to summation order."""

    @pytest.mark.parametrize("n", [1, 2, 2333])
    @pytest.mark.parametrize(
        "sizes", [(4, 1), (4, 8, 1), (4, 6, 3, 1)], ids=["linear", "one", "two"]
    )
    def test_matches_sample_major_reference(self, sizes, n):
        rng = np.random.default_rng(n)
        model = MLPModel.init(sizes, seed=n)
        for b in model.biases:
            b += rng.normal(0.0, 0.5, b.shape)
        x = rng.normal(size=(n, sizes[0]))
        dloss = rng.normal(size=n)
        fwd = model.propagate(x)
        output, acts = sample_major_propagate(model, x)
        assert_close_to_scale(fwd.output, output)
        assert len(fwd.acts) == len(acts)
        for got, want in zip(fwd.acts, acts):
            assert_close_to_scale(got, want.T)
        assert all(a.flags.c_contiguous for a in fwd.acts[1:])
        grad_w, grad_b = model.backward(fwd, dloss)
        ref_w, ref_b = sample_major_backward(model, output, acts, dloss)
        for got, want in zip((*grad_w, *grad_b), (*ref_w, *ref_b)):
            assert_close_to_scale(got, want)


def evaluate(model, x, y):
    """The sweep report of a model's predictions under unit weights."""
    series = LabeledSeries(model.forward(x), y)
    return sweep_report(series, sweep_thresholds(), UnitWeight())


class TestEvaluate:
    def test_perfect_model_maximal_everywhere(self):
        # One passthrough feature pushed through the logistic gives
        # predictions near 0 and 1; every interior threshold separates them.
        model = MLPModel(
            weights=[np.array([[12.0]])], biases=[np.array([0.0])]
        )
        x = np.array([[1.0], [1.0], [-1.0], [-1.0]])
        y = np.array([1, 1, 0, 0])
        report = evaluate(model, x, y)
        for row in report["sweep"]:
            assert row["scores"]["tss"] == 1.0
            assert row["scores"]["accuracy"] == 1.0
        # Every threshold ties, and the first maximum is the best one.
        assert report["best"]["tss"]["tau"] == 0.01
        assert report["best"]["tss"]["weighted_tau"] == 0.01

    def test_constant_model_degenerate_rows_score_zero(self):
        model = MLPModel(weights=[np.array([[0.0]])], biases=[np.array([0.1])])
        x = np.zeros((6, 1))
        y = np.array([0, 1, 0, 1, 0, 1])
        report = evaluate(model, x, y)
        # Every prediction equals sigmoid(0.1) ~ 0.525: thresholds on one
        # side alarm on everything, the other side on nothing.
        for row in report["sweep"]:
            assert row["scores"]["tss"] == 0.0

    def test_report_matrix_matches_hard_confusion(self, rng):
        cfg = SyntheticSeriesConfig(n=60, seed=17)
        x, y = generate_temporal_dataset(cfg)
        model = MLPModel.init((x.shape[1], 4, 1), seed=8)
        report = evaluate(model, x, y)
        series = LabeledSeries(model.forward(x), y)
        row = next(r for r in report["sweep"] if abs(r["tau"] - 0.5) < 1e-9)
        cm = hard_confusion(series, 0.5)
        assert row["cm"] == asdict(cm)

    def test_sweep_rows_match_scalar_path(self, rng):
        # Tie-heavy value_max series: predictions repeat and sit exactly on
        # sweep thresholds, where an alarm needs a strictly larger prediction.
        preds = rng.choice([0.1, 0.25, 0.5, 0.5, 0.73, 0.9], size=60)
        labels = (rng.random(60) < 0.4).astype(int)
        series = LabeledSeries(preds, labels)
        weights = ValueMaxWeight(omega=(0.6, 0.3, 0.1))
        thresholds = np.round(np.arange(0.01, 1.0, 0.01), 10)
        report = sweep_report(series, thresholds, weights)
        assert len(report["sweep"]) == len(thresholds)
        for tau, row in zip(thresholds, report["sweep"]):
            cm = hard_confusion(series, float(tau))
            wc = weighted_hard_confusion(series, float(tau), weights)
            assert row["tau"] == float(tau)
            assert row["cm"] == asdict(cm)
            assert all(type(v) is int for v in row["cm"].values())
            wcm = row["wcm"]
            assert (wcm["tn"], wcm["tp"]) == (wc.tn, wc.tp)
            assert type(wcm["tn"]) is int and type(wcm["tp"]) is int
            # The weighted sums run over all thresholds at once, in another
            # order than at one threshold: 60 terms of at most 1 round to
            # within 60 * 60 * 2**-53 < 1e-12 of each other.
            assert wcm["wfp"] == pytest.approx(wc.wfp, rel=0, abs=1e-12)
            assert wcm["wfn"] == pytest.approx(wc.wfn, rel=0, abs=1e-12)
            for kind in ScoreKind:
                classical = apply_score(kind, cm.tn, cm.fp, cm.fn, cm.tp).value
                weighted = apply_score(kind, wc.tn, wc.wfp, wc.wfn, wc.tp).value
                assert row["scores"][kind.value] == classical
                assert row["weighted_scores"][kind.value] == pytest.approx(
                    weighted, rel=0, abs=1e-12
                )

    def test_sweep_grid_of_every_reciprocal_step_lies_inside_unit_interval(self):
        # Rounded to 10 decimals, the last arange point of 916 of these steps,
        # 1/3 among them, is 1.0; the default grid keeps its 99 points.
        for k in range(2, 10_001):
            grid = sweep_thresholds(1.0 / k)
            assert grid.size and 0.0 < grid[0] and grid[-1] < 1.0
        np.testing.assert_array_equal(
            sweep_thresholds(), np.round(np.arange(0.01, 1.0, 0.01), 10)
        )
        assert sweep_thresholds().size == 99

    def test_sweep_rejects_threshold_outside_unit_interval(self, rng):
        series = LabeledSeries(rng.uniform(0.1, 0.9, 10), np.arange(10) % 2)
        with pytest.raises(ValidationError):
            sweep_report(series, np.array([0.5, 1.0]), UnitWeight())
