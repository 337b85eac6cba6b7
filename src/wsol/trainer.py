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
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .confusion import hard_entries, weighted_hard_confusion
from .errors import (
    DegenerateDenominatorError,
    TrainingDivergedError,
    ValidationError,
    check_finite,
    check_integer,
    finite_json,
)
from .expected import expected_confusion
from .loss import CombinedLossSpec, LossEvaluation, LossSpec, evaluate_loss
from .scores import ScoreKind, apply_score, score_array, score_table
from .series import LabeledSeries
from .weights import UnitWeight, WeightSpec


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
        not have written: non-finite parameters, or layers that do not chain
        from the input to one output."""
        doc = json.loads(Path(path).read_text())
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
    labels = np.asarray(labels, dtype=np.int64)
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
    # Labels are checked once: each step swaps predictions into these series.
    whole = features, LabeledSeries(np.full(n, 0.5), labels)
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
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss", "score_classical", "score_weighted"])
        for rec in history:
            writer.writerow(
                [
                    rec.epoch,
                    repr(float(rec.loss)),
                    repr(float(rec.score_classical)),
                    repr(float(rec.score_weighted)),
                ]
            )


def sweep_thresholds(step: float = 0.01) -> np.ndarray:
    """The sweep grid: step, 2 * step, ... rounded to 10 decimals, kept below 1.

    Rounding can carry the last point of ``np.arange`` up to 1.0 (step 1/3
    does), which is not a threshold, so it is dropped.
    """
    grid = np.round(np.arange(step, 1.0, step), 10)
    return grid[grid < 1.0]


def sweep_report(
    series: LabeledSeries, thresholds: np.ndarray, weight_spec: WeightSpec
) -> dict:
    """Hard and weighted matrices with every score at each threshold, and the best taus.

    One hard_entries call gives both matrices at every threshold, and one
    score_table call scores them; the rows are read off those arrays
    column by column, with counts as ints.  The best tau of a score is its
    first maximum.
    """
    entries = hard_entries(series, thresholds, weight_spec)
    taus = np.asarray(thresholds, dtype=np.float64).tolist()
    tn, fp, fn, tp = entries[:, 0].astype(np.int64).tolist()
    _, wfp, wfn, _ = entries[:, 1].tolist()
    table = score_table(*entries)
    # Each threshold's scores by name, of the classical and the weighted matrix.
    scores, weighted = (
        [dict(zip(table, vals)) for vals in zip(*(v[k] for v in table.values()))]
        for k in (0, 1)
    )
    rows = [
        {
            "tau": taus[b],
            "cm": {"tn": tn[b], "fp": fp[b], "fn": fn[b], "tp": tp[b]},
            "wcm": {"tn": tn[b], "wfp": wfp[b], "wfn": wfn[b], "tp": tp[b]},
            "scores": scores[b],
            "weighted_scores": weighted[b],
        }
        for b in range(len(taus))
    ]
    best = {}
    for name, (values, wvalues) in table.items():
        idx, widx = int(np.argmax(values)), int(np.argmax(wvalues))
        best[name] = {
            "tau": taus[idx],
            "value": values[idx],
            "weighted_tau": taus[widx],
            "weighted_value": wvalues[widx],
        }
    return {"sweep": rows, "best": best}


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


def _weighted_metric(
    model: MLPModel,
    features: np.ndarray,
    labels: np.ndarray,
    weights: WeightSpec,
    tau_mean: float,
) -> tuple[float, float]:
    """Weighted-matrix TSS at tau_mean and the best over the 0.01-step sweep."""
    preds = model.forward(features)
    series = LabeledSeries(preds, labels)
    taus = np.append(sweep_thresholds(), tau_mean)
    entries = hard_entries(series, taus, weights)[:, 1]
    values, _ = score_array(ScoreKind.TSS, *entries)
    return float(values[-1]), float(np.max(values[:-1]))


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
    runs = []
    for seed in seeds:
        features, labels = generate_temporal_dataset(replace(base_cfg, seed=seed))
        scored = []
        for loss, lr in ((baseline, baseline_lr), (candidate, candidate_lr)):
            model = MLPModel.init((features.shape[1], 8, 1), seed=seed)
            cfg = TrainConfig(loss=loss, epochs=epochs, learning_rate=lr, seed=seed)
            train(features, labels, model, cfg)
            scored.append(
                _weighted_metric(model, features, labels, head.weights, tau_mean)
            )
        (a_mean, a_best), (b_mean, b_best) = scored
        runs.append(
            PairedRun(
                seed=seed,
                baseline_at_mean=a_mean,
                candidate_at_mean=b_mean,
                baseline_best=a_best,
                candidate_best=b_best,
            )
        )
    improvements = [r.improvement for r in runs]
    return {
        "metric": ScoreKind.TSS.value,
        "threshold": tau_mean,
        "runs": runs,
        "median_improvement": float(np.median(improvements)),
        "median_best_improvement": float(
            np.median([r.candidate_best - r.baseline_best for r in runs])
        ),
    }


def expected_report(
    series: LabeledSeries, dist, weight_spec: WeightSpec
) -> dict:
    """Expected classical and weighted matrices with all scores of each."""
    classical = expected_confusion(series, dist, UnitWeight())
    weighted = expected_confusion(series, dist, weight_spec)
    return {
        "classical": asdict(classical),
        "weighted": asdict(weighted),
        "scores_classical": score_table(*classical.entries()),
        "scores_weighted": score_table(*weighted.entries()),
    }
