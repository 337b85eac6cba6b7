"""Desk-scale training demo: a small MLP driven by a score-oriented loss.

The model is a plain numpy network with tanh hidden layers and a logistic
output, so predictions stay strictly inside (0, 1).  Training is full-batch
gradient descent by default because the value-weighted losses couple
neighbouring samples through their windows; contiguous chunking in time
order is available and applies the window boundary policy per chunk.

Each step runs one forward pass, keeps its activations for the backward
pass, and evaluates one expected matrix per loss component for both the
loss and its gradient.  Inside the network every activation and every
backpropagated delta is a (units, n) array, samples innermost, so each
hidden-layer broadcast and each bias sum runs along the samples; the
weights keep their (in, out) shape.  The epoch report scores the
classical and the weighted matrix from one column of the hard matrix.  In
full-batch mode the report's pass and matrices are the next step's
inputs, bit for bit, so the next step takes them over.  A degenerate
chunk is still skipped.

The synthetic dataset generator produces bursty event sequences with
noisy leading indicators, so near-miss alarms (alarms adjacent to missed
events) arise naturally and the value weights have something to reward.
This module only trains: the sweep and expected reports of a trained
model live in ``wsol.confusion`` and ``wsol.expected``, and the paired
comparison scores its models with them.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .confusion import sweep_report, sweep_thresholds, weighted_hard_confusion
from .errors import (
    DegenerateDenominatorError,
    TrainingDivergedError,
    ValidationError,
    check_finite,
    check_integer,
    finite_json,
)
from .loss import CombinedLossSpec, LossEvaluation, LossSpec, evaluate_loss
from .scores import ScoreKind, apply_score
from .series import LabeledSeries


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) never overflows, and the one division takes each sign's
    # stable numerator: 1 for z >= 0, exp(z) below.
    e = np.abs(z)
    np.exp(np.negative(e, out=e), out=e)
    num = np.where(z >= 0, 1.0, e)
    e += 1.0
    num /= e
    return num


_PRED_EPS = 1e-9


@dataclass(frozen=True, eq=False)
class ForwardPass:
    """One pass through the network: what ``backward`` needs, kept from it.

    ``output`` is the unclipped logistic output, shape (n,).  ``acts``
    holds each layer's input as a (units, n) array, samples innermost: the
    network input as the view ``x.T``, then each hidden layer's activation,
    which ``backward`` consumes.
    """

    output: np.ndarray
    acts: list[np.ndarray]

    @property
    def predictions(self) -> np.ndarray:
        """The output clipped a hair inside (0, 1), so logs stay finite."""
        return np.minimum(np.maximum(self.output, _PRED_EPS), 1.0 - _PRED_EPS)


@dataclass
class MLPModel:
    """Fully connected network; tanh hidden layers, logistic output."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @classmethod
    def init(cls, sizes: tuple[int, ...], seed: int) -> "MLPModel":
        """Symmetric uniform init scaled by fan-in; `sizes` is (in, hidden..., 1)."""
        if len(sizes) < 2 or sizes[-1] != 1:
            raise ValidationError("sizes must be (input, hidden..., 1)")
        rng = np.random.default_rng(seed)
        weights = []
        biases = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(weights=weights, biases=biases)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple([self.weights[0].shape[0]] + [w.shape[1] for w in self.weights])

    def propagate(self, x: np.ndarray) -> ForwardPass:
        """One forward pass over the (n, in) inputs ``x``, keeping every
        activation for ``backward``."""
        acts = [x.T]
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            z = w.T @ acts[-1]
            z += b[:, None]
            acts.append(np.tanh(z, out=z))
        z = self.weights[-1][:, 0] @ acts[-1] + self.biases[-1][0]
        return ForwardPass(output=_sigmoid(z), acts=acts)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Predictions in (0, 1); clipped a hair inside so logs stay finite."""
        return self.propagate(x).predictions

    def backward(
        self, fwd: ForwardPass, dloss_dpred: np.ndarray
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Parameter gradients for a loss gradient over the predictions of ``fwd``.

        ``fwd`` is this model's ``propagate`` on the inputs, at the current
        parameters; nothing is recomputed.  Each delta is (units, n), like
        the activations, and each gradient has its parameter's shape.  The
        pass is consumed: each hidden activation is overwritten with its
        tanh slope once its weight gradient is taken, so a ``ForwardPass``
        is backpropagated at most once.  Its input and output are kept.
        """
        pred = fwd.output
        delta = (dloss_dpred * pred * (1.0 - pred))[None, :]
        layers = len(self.weights)
        grad_w = [None] * layers
        grad_b = [None] * layers
        for layer in range(layers - 1, -1, -1):
            a = fwd.acts[layer]
            grad_w[layer] = (delta @ a.T).T
            grad_b[layer] = delta.sum(axis=1)
            if layer:
                w = self.weights[layer]  # a one-row delta: an outer product
                delta = w * delta if delta.shape[0] == 1 else w @ delta
                np.multiply(a, a, out=a)
                delta *= np.subtract(1.0, a, out=a)
        return grad_w, grad_b

    def save(self, path: str | Path) -> None:
        doc = {
            "sizes": list(self.sizes),
            "activation": "tanh",
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }
        Path(path).write_text(finite_json(doc))

    @classmethod
    def load(cls, path: str | Path) -> "MLPModel":
        """Read a ``save`` checkpoint; ValidationError for what ``save`` would
        not have written: text that is not a JSON object, a missing
        ``weights`` or ``biases`` key, non-finite parameters, or layers that
        do not chain from the input to one output."""
        try:
            doc = json.loads(Path(path).read_text())
        except ValueError as exc:  # not JSON, or not UTF-8 text
            raise ValidationError(f"{path}: not a JSON checkpoint: {exc}") from None
        if not isinstance(doc, dict):
            raise ValidationError(f"{path}: checkpoint must be a JSON object")
        missing = [key for key in ("weights", "biases") if key not in doc]
        if missing:
            raise ValidationError(f"{path}: checkpoint has no {' or '.join(missing)}")
        if doc.get("activation") != "tanh":
            raise ValidationError(f"unsupported activation {doc.get('activation')!r}")
        try:
            weights = [np.array(w, dtype=np.float64) for w in doc["weights"]]
            biases = [np.array(b, dtype=np.float64) for b in doc["biases"]]
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"checkpoint parameters: {exc}") from None
        if len(biases) != len(weights):
            raise ValidationError("checkpoint needs one bias per weight matrix")
        fan_out = None
        for layer, (w, b) in enumerate(zip(weights, biases)):
            if w.ndim != 2:
                raise ValidationError(f"layer {layer} weight is {w.ndim}-d, must be 2-d")
            if fan_out is not None and w.shape[0] != fan_out:
                raise ValidationError(
                    f"layer {layer} takes {w.shape[0]} inputs, "
                    f"but the layer before gives {fan_out}"
                )
            fan_out = w.shape[1]
            if b.shape != (fan_out,):
                raise ValidationError(
                    f"layer {layer} bias must have shape ({fan_out},), got {b.shape}"
                )
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValidationError(f"layer {layer} has a non-finite parameter")
        if fan_out != 1:
            raise ValidationError(f"last layer must have width 1, got {fan_out}")
        return cls(weights=weights, biases=biases)


# Upper bounds on a synthetic dataset, so that its (n, features) matrix
# stays below 800 MB and an absurd size is a config error, not an
# allocation failure.
MAX_SYNTH_SAMPLES = 10**6
MAX_SYNTH_FEATURES = 100


@dataclass(frozen=True)
class SyntheticSeriesConfig:
    n: int = 400
    event_rate: float = 0.2
    precursor_strength: float = 1.0
    noise: float = 0.5
    window: int = 3
    seed: int = 0
    features: int = 4

    def __post_init__(self):
        for name in ("event_rate", "precursor_strength", "noise"):
            object.__setattr__(self, name, check_finite(name, getattr(self, name)))
        for name in ("n", "window", "seed", "features"):
            object.__setattr__(self, name, check_integer(name, getattr(self, name)))
        if not 1 <= self.n <= MAX_SYNTH_SAMPLES:
            raise ValidationError(
                f"n must lie in [1, {MAX_SYNTH_SAMPLES}], got {self.n}"
            )
        if not 2 <= self.features <= MAX_SYNTH_FEATURES:
            raise ValidationError(
                f"features must lie in [2, {MAX_SYNTH_FEATURES}], got {self.features}"
            )
        if not 0.0 <= self.event_rate <= 1.0:
            raise ValidationError("event_rate must lie in [0, 1]")
        if self.noise < 0:
            raise ValidationError("noise must be non-negative")
        if self.window < 1 or self.seed < 0:
            raise ValidationError("need a positive window and a non-negative seed")


def generate_temporal_dataset(
    cfg: SyntheticSeriesConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic bursty event sequence with leading-indicator features.

    The positive count is drawn binomially, then split into short bursts
    placed at random, so events arrive in clusters.  Placement stops after
    10,000 + 20 n attempts.  Placing every drawn positive takes about
    0.13 n attempts at event rate 0.2, 3 n at 0.9 and 11-24 n at 1 (more
    for longer series), so only rates near 1 on long series can end short
    of the drawn count.  Feature 0 carries a decaying precursor signal
    ahead of each event, feature 1 a concurrent signal; the rest are pure
    noise.  With precursor_strength 0 every feature is independent of the
    labels.
    """
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n
    labels = np.zeros(n, dtype=np.int64)
    budget = int(rng.binomial(n, cfg.event_rate))
    for _ in range(10000 + 20 * n):
        if budget == 0:
            break
        length = min(int(rng.geometric(0.5)), budget, 4)
        start = int(rng.integers(0, n))
        if start + length > n or labels[start : start + length].any():
            continue
        labels[start : start + length] = 1
        budget -= length
    x = rng.normal(0.0, cfg.noise, size=(n, cfg.features))
    # The decay falls with lag, so the nearest event ahead sets the precursor:
    # decay[d - 1] at distance d within the window, else 0.  No look-ahead is
    # longer than the series, however wide the window.
    decay = np.array([0.9**k for k in range(1, min(cfg.window, n) + 1)])
    t = np.arange(n)
    events = np.append(np.flatnonzero(labels), 2 * n)  # a sentinel past any window
    ahead = events[np.searchsorted(events, t, side="right")] - t
    near = ahead <= decay.size
    lead = np.zeros(n)
    lead[near] = decay[ahead[near] - 1]
    x[:, 0] += cfg.precursor_strength * lead
    x[:, 1] += 0.8 * cfg.precursor_strength * labels
    return x, labels


@dataclass(frozen=True)
class TrainConfig:
    loss: LossSpec | CombinedLossSpec
    epochs: int = 300
    learning_rate: float = 0.5
    seed: int = 0
    chunk: int | None = None  # None: full batch; else contiguous chunk length

    def __post_init__(self):
        object.__setattr__(
            self, "learning_rate", check_finite("learning_rate", self.learning_rate)
        )
        object.__setattr__(self, "epochs", check_integer("epochs", self.epochs))
        if self.chunk is not None:
            object.__setattr__(self, "chunk", check_integer("chunk", self.chunk))
        if self.epochs < 0 or self.learning_rate < 0:
            raise ValidationError("epochs and learning rate must be non-negative")
        if self.chunk is not None and self.chunk < 1:
            raise ValidationError("chunk length must be positive")


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    score_classical: float
    score_weighted: float


@dataclass
class TrainResult:
    model: MLPModel
    history: list[EpochRecord] = field(default_factory=list)


def _evaluate(
    model: MLPModel,
    x: np.ndarray,
    series: LabeledSeries,
    loss: LossSpec | CombinedLossSpec,
    epoch: int,
) -> tuple[ForwardPass, LossEvaluation]:
    """One forward pass and the loss's expected matrices at its predictions.

    train has checked that the lengths match, and the clip keeps every
    finite output inside (0, 1), so the series' own check of the
    predictions fails only on a NaN output: divergence.
    """
    fwd = model.propagate(x)
    try:
        series = series.with_predictions(fwd.predictions)
    except ValidationError:
        raise TrainingDivergedError(epoch) from None
    return fwd, evaluate_loss(series, loss)


def train(
    features: np.ndarray,
    labels: np.ndarray,
    model: MLPModel,
    cfg: TrainConfig,
) -> TrainResult:
    """Gradient descent on the configured loss; aborts on divergence.

    Each step takes one forward pass, whose activations the backward pass
    reuses, and one expected matrix per loss component, which gives both
    the loss and its gradient.  Each epoch record reflects the state after
    that epoch's updates: the full-series loss plus the headline score at
    the prior-mean threshold, on both the classical and the weighted hard
    matrix, which share one column of the hard matrix.  When one chunk
    covers the whole series, the report's forward pass and expected
    matrices are exactly the next step's inputs, so that step reuses them.
    A chunk whose score is degenerate (e.g. no positives inside it)
    contributes no update.  Divergence means a non-finite loss, gradient,
    or parameter.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    # Labels are checked once, before any cast: each step swaps predictions
    # into this series and the chunks'.
    whole = features, LabeledSeries(np.full(labels.shape, 0.5), labels)
    labels = whole[1].labels
    # Checked here, so that a failed prediction check below means divergence.
    if features.shape[:1] != (labels.size,):
        raise ValidationError(
            f"features need one row per label, got shape {features.shape} "
            f"for {labels.size} labels"
        )
    head = cfg.loss.components[0][0]
    tau_report = head.dist.mean()
    result = TrainResult(model=model)
    n = labels.size
    if cfg.chunk is None:
        bounds = [(0, n)]
    else:
        bounds = [(s, min(s + cfg.chunk, n)) for s in range(0, n, cfg.chunk)]
    full_batch = bounds == [(0, n)]
    # The classical errors are the class counts less tn and tp.
    n_neg, n_pos = float(whole[1].neg.sum()), float(whole[1].pos.sum())
    chunks = [whole] if full_batch else [
        (features[lo:hi], LabeledSeries(np.full(hi - lo, 0.5), labels[lo:hi]))
        for lo, hi in bounds
    ]
    params = (*model.weights, *model.biases)  # updated in place
    carried = None
    for epoch in range(cfg.epochs):
        for x, series in chunks:
            fwd, ev = carried or _evaluate(model, x, series, cfg.loss, epoch)
            carried = None
            try:
                grad = ev.gradient()
            except DegenerateDenominatorError:
                continue
            dloss_dpred = grad.values
            if not np.isfinite(ev.value) or not np.isfinite(dloss_dpred).all():
                raise TrainingDivergedError(epoch)
            grad_w, grad_b = model.backward(fwd, dloss_dpred)
            # An overflow here is divergence, which the check below reports.
            with np.errstate(over="ignore", invalid="ignore"):
                for param, g in zip(params, (*grad_w, *grad_b)):
                    g *= cfg.learning_rate
                    param -= g
            for arr in params:
                if not np.isfinite(arr).all():
                    raise TrainingDivergedError(epoch)
        fwd, ev = _evaluate(model, *whole, cfg.loss, epoch)
        wc = weighted_hard_confusion(ev.series, tau_report, head.weights)
        classical = apply_score(head.score, wc.tn, n_neg - wc.tn, n_pos - wc.tp, wc.tp)
        weighted = apply_score(head.score, wc.tn, wc.wfp, wc.wfn, wc.tp)
        result.history.append(
            EpochRecord(
                epoch=epoch,
                loss=ev.value,
                score_classical=classical.value,
                score_weighted=weighted.value,
            )
        )
        if full_batch:
            carried = fwd, ev
    return result


def write_history_csv(path: str | Path, history: list[EpochRecord]) -> None:
    """One CSV row per record under a header of ``EpochRecord``'s fields, in
    their order: the epoch as an integer, then ``repr`` of each other field as
    a float.  A field added to the record is a column here too."""
    names = [f.name for f in fields(EpochRecord)]
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for rec in history:
            epoch, *values = (getattr(rec, name) for name in names)
            writer.writerow([epoch, *(repr(float(v)) for v in values)])


@dataclass(frozen=True)
class PairedRun:
    seed: int
    baseline_at_mean: float
    candidate_at_mean: float
    baseline_best: float
    candidate_best: float

    @property
    def improvement(self) -> float:
        return self.candidate_at_mean - self.baseline_at_mean


def paired_comparison(
    base_cfg: SyntheticSeriesConfig,
    baseline: LossSpec | CombinedLossSpec,
    candidate: LossSpec | CombinedLossSpec,
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5),
    epochs: int = 300,
    baseline_lr: float = 0.01,
    candidate_lr: float = 0.3,
) -> dict:
    """Train both losses on the same data per seed; score weighted TSS.

    Both models have one hidden layer of 8 units.  The metric is TSS on the
    weighted matrix of the candidate's (first component's) weights; the
    headline column takes it at the prior-mean threshold (the training-time
    reporting rule), and the best-threshold columns show what a-posteriori
    tuning would recover for each model.
    Learning rates differ per loss because the losses have different
    natural scales: an unnormalized sum grows with the batch, a score
    stays in a fixed range.
    """
    head = candidate.components[0][0]
    tau_mean = head.dist.mean()
    metric = ScoreKind.TSS
    runs = []
    for seed in seeds:
        features, labels = generate_temporal_dataset(replace(base_cfg, seed=seed))
        at_mean, best = [], []
        for loss, lr in ((baseline, baseline_lr), (candidate, candidate_lr)):
            model = MLPModel.init((features.shape[1], 8, 1), seed=seed)
            cfg = TrainConfig(loss=loss, epochs=epochs, learning_rate=lr, seed=seed)
            train(features, labels, model, cfg)
            series = LabeledSeries(model.forward(features), labels)
            wc = weighted_hard_confusion(series, tau_mean, head.weights)
            at_mean.append(apply_score(metric, wc.tn, wc.wfp, wc.wfn, wc.tp).value)
            report = sweep_report(series, sweep_thresholds(), head.weights)
            best.append(report["best"][metric.value]["weighted_value"])
        runs.append(PairedRun(seed, *at_mean, *best))
    improvements = [r.improvement for r in runs]
    return {
        "metric": metric.value,
        "threshold": tau_mean,
        "runs": runs,
        "median_improvement": float(np.median(improvements)),
        "median_best_improvement": float(
            np.median([r.candidate_best - r.baseline_best for r in runs])
        ),
    }
