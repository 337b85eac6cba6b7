"""The benchmark's workloads: seeded inputs, one timed call path, output checks.

Every workload is a closed loop with one caller: op k starts after op k-1
returns.  Inputs are a pure function of (run seed, op index), built outside
the timer; wsol receives only those generated inputs.  ``op`` is the timed
part.  ``check`` runs untimed after each op and returns a failure message
or None; ``finish`` runs the run-level checks after the loop.

Tolerances are the ones the acceptance suite pins: closed form against the
exact oracle at 1e-10 absolute, gradients against central differences at
relative 1e-5.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

import wsol
from wsol import trainer

EXACT_TOL = 1e-10
GRAD_REL_TOL = 1e-5
# False-alarm rate of all Monte Carlo comparisons of one run taken together.
MC_FAMILY_ALPHA = 1e-4
GRAD_CHECK_POINTS = 5
# The combined loss against the beta-weighted sum of its components,
# relative; the two sums differ only in rounding.
COMBINATION_TOL = 1e-12


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _scored_predictions(rng: np.random.Generator, labels: np.ndarray) -> np.ndarray:
    # Logistic of a label-shifted normal: informative, strictly inside (0, 1).
    z = rng.normal(0.0, 1.2, size=labels.size) + 1.5 * (labels - 0.5)
    return 1.0 / (1.0 + np.exp(-z))


def _gradient_failures(series, loss_fn, grad, indices, step) -> tuple[list[str], float]:
    """Central differences of loss_fn against grad at the given indices.

    Relative error is measured as in the acceptance suite, against
    max(|g_i|, 1), except that the floor of 1 drops to the gradient's own
    largest entry when that is smaller, so small gradients are still checked.
    Returns the failure messages and the worst relative error.
    """
    g = grad.values
    worst = 0.0
    floor = min(1.0, float(np.max(np.abs(g))))
    p0 = series.predictions
    failures = []
    for i in indices:
        sides = []
        for shift in (step, -step):
            p = p0.copy()
            p[i] += shift
            sides.append(loss_fn(series.with_predictions(p)))
        fd = (sides[0] - sides[1]) / (2.0 * step)
        rel = abs(fd - g[i]) / max(abs(g[i]), floor)
        worst = max(worst, rel)
        if not rel < GRAD_REL_TOL:
            failures.append(
                f"gradient at index {i}: analytic {float(g[i])!r}, central difference "
                f"{fd!r}, relative error {rel:.2e} >= {GRAD_REL_TOL}"
            )
    return failures, worst


def _entry_gaps(a, b) -> np.ndarray:
    return np.abs(np.array(a.entries()) - np.array(b.entries()))


class TrainValueMax:
    """One op is one full-batch training epoch under the value_max TSS loss.

    Ops run as back-to-back training runs of `cycle` epochs each; run r
    trains a fresh model on its own dataset, both seeded by (seed, r).
    An epoch's cost depends on where training has taken the model, so one
    long run would make a whole benchmark run follow a single trajectory;
    many short runs average over datasets and initial models instead.

    Each run's series length is drawn from `n_range` (mean 2000).  Epochs
    of one fixed length cluster tightly, and on a shared machine whose
    speed switches between two levels the cluster splits in two, so the
    median epoch jumps between them from run to run; a spread of lengths
    lets it move smoothly with the machine's speed, as the mean does.
    """

    name = "train_value_max"
    cycle = 20  # epochs per training run
    traced_ops = cycle  # one whole training run
    n_range = (1500, 2500)
    prefix = 200
    fd_step = 1e-6

    def __init__(self, seed: int):
        self.seed = seed
        self.spec = wsol.LossSpec(
            wsol.ScoreKind.TSS,
            wsol.ValueMaxWeight((0.6, 0.3, 0.1)),
            wsol.ThresholdDistribution.uniform(),
        )
        self.cfg = trainer.TrainConfig(
            loss=self.spec, epochs=1, learning_rate=0.3, seed=seed
        )
        self.report: dict = {}
        self.reset()

    def reset(self) -> None:
        """Forget the current training run; the next op starts a fresh one."""
        self.run = None

    def _start_run(self, run: int) -> None:
        rng = _rng(self.seed, 4, run)
        run_seed = int(rng.integers(2**32))
        n = int(rng.integers(self.n_range[0], self.n_range[1] + 1))
        self.features, self.labels = trainer.generate_temporal_dataset(
            trainer.SyntheticSeriesConfig(n=n, window=3, seed=run_seed)
        )
        self.model = trainer.MLPModel.init((4, 8, 1), seed=run_seed)
        self.run = run

    def inputs(self, k: int):
        # Op 0, the warm-up, is training run 0; ops 1..cycle are run 1, and so on.
        run = (k + self.cycle - 1) // self.cycle
        if run != self.run:
            self._start_run(run)
        return self.features, self.labels, self.model, self.cfg

    def op(self, args):
        return trainer.train(*args)

    def check(self, args, out) -> str | None:
        record = out.history[-1]
        values = (record.loss, record.score_classical, record.score_weighted)
        return None if all(map(math.isfinite, values)) else f"non-finite epoch record {record}"

    def _smooth_indices(self, p: np.ndarray, grad) -> list[int]:
        # Away from value-weight kinks: no prediction within the window reach
        # of i (3 lags either side) lies within 100 steps of p[i].
        gap = 100 * self.fd_step
        kinks = set(grad.kink_indices)
        ok = []
        for i in range(p.size):
            near = np.concatenate([p[max(0, i - 3) : i], p[i + 1 : i + 4]])
            if i not in kinks and gap < p[i] < 1 - gap and np.all(np.abs(near - p[i]) > gap):
                ok.append(i)
        rng = _rng(self.seed, 9)
        return sorted(rng.choice(ok, size=GRAD_CHECK_POINTS, replace=False).tolist())

    def finish(self) -> list[str]:
        preds = self.model.forward(self.features)
        series = wsol.LabeledSeries(preds, self.labels)
        grad = wsol.loss_gradient(series, self.spec)
        failures, worst = _gradient_failures(
            series,
            lambda s: wsol.loss_value(s, self.spec),
            grad,
            self._smooth_indices(preds, grad),
            self.fd_step,
        )
        head = wsol.LabeledSeries(preds[: self.prefix], self.labels[: self.prefix])
        closed = wsol.expected_confusion(head, self.spec.dist, self.spec.weights)
        exact = wsol.exact_expected_confusion(head, self.spec.dist, self.spec.weights)
        gap = float(np.max(_entry_gaps(closed, exact)))
        self.report = {"gradient_worst_rel": worst, "prefix_exact_gap": gap}
        if not gap <= EXACT_TOL:
            failures.append(
                f"closed form against exact oracle on a {self.prefix}-sample prefix: "
                f"max entry gap {gap:.2e} > {EXACT_TOL}"
            )
        return failures


class LossCombined100k:
    """One op is `wsol loss --gradient` on a combined loss: new series, value and gradient."""

    name = "loss_combined_100k"
    cycle = 1
    n = 100_000
    traced_ops = 20
    # Large enough that rounding in the sums over 100k entries stays far
    # below the tolerance, small enough for the truncation error.
    fd_step = 1e-4

    def __init__(self, seed: int):
        self.seed = seed
        self.labels = (_rng(seed, 1).random(self.n) < 0.3).astype(np.int64)
        uniform = wsol.ThresholdDistribution.uniform
        self.spec = wsol.CombinedLossSpec(
            (
                (
                    wsol.LossSpec(
                        wsol.ScoreKind.TSS,
                        wsol.UnitWeight(),
                        wsol.ThresholdDistribution.beta_prior(2, 5),
                    ),
                    0.5,
                ),
                (
                    wsol.LossSpec(
                        wsol.ScoreKind.F1, wsol.CostWeight(1, 3), uniform(0.05, 0.95)
                    ),
                    0.3,
                ),
                (
                    wsol.LossSpec(
                        wsol.ScoreKind.NEG_ERROR_SUM,
                        wsol.CrossEntropyWeight(1, 2),
                        uniform(),
                    ),
                    0.2,
                ),
            )
        )
        self.last = None
        self.report: dict = {}

    def reset(self) -> None:
        self.last = None

    def inputs(self, k: int) -> np.ndarray:
        return _scored_predictions(_rng(self.seed, 2, k), self.labels)

    def op(self, predictions):
        series = wsol.LabeledSeries(predictions, self.labels)
        value, grad = wsol.combined_loss(series, self.spec)
        return series, value, grad

    def check(self, predictions, out) -> str | None:
        self.last = out
        _, value, grad = out
        if not math.isfinite(value):
            return f"non-finite loss {value!r}"
        if not np.all(np.isfinite(grad.values)):
            return "non-finite gradient entries"
        return None

    def finish(self) -> list[str]:
        """Check the last op's value and gradient component by component.

        Each component's analytic gradient is compared with central
        differences against its own scale, so a small component is not
        hidden under the cross-entropy term; the op's output must then be
        the beta-weighted sum of the components.
        """
        if self.last is None:
            return ["no op completed"]
        series, value, grad = self.last
        p = series.predictions
        # Keep the stencil clear of the F1 prior's support edges (0.05, 0.95).
        margin = 100 * self.fd_step
        ok = np.flatnonzero((p > 0.05 + margin) & (p < 0.95 - margin))
        indices = sorted(
            _rng(self.seed, 9).choice(ok, size=GRAD_CHECK_POINTS, replace=False).tolist()
        )
        failures = []
        worst = 0.0
        total_value = 0.0
        total_grad = np.zeros(series.n)
        for component, beta in self.spec.components:
            g = wsol.loss_gradient(series, component)
            found, rel = _gradient_failures(
                series,
                lambda s, c=component: wsol.loss_value(s, c),
                g,
                indices,
                self.fd_step,
            )
            failures += [f"{component.score.value} component: {f}" for f in found]
            worst = max(worst, rel)
            total_value += beta * wsol.loss_value(series, component)
            total_grad += beta * g.values
        value_gap = abs(value - total_value) / max(abs(total_value), 1.0)
        grad_gap = float(np.max(np.abs(grad.values - total_grad)) / np.max(np.abs(total_grad)))
        self.report = {
            "gradient_worst_rel": worst,
            "combination_value_gap": value_gap,
            "combination_gradient_gap": grad_gap,
        }
        if not (value_gap <= COMBINATION_TOL and grad_gap <= COMBINATION_TOL):
            failures.append(
                f"combined loss is not the weighted sum of its components: value gap "
                f"{value_gap:.2e}, gradient gap {grad_gap:.2e} > {COMBINATION_TOL}"
            )
        return failures


def _oracle_pairs() -> list[tuple[object, object]]:
    uniform = wsol.ThresholdDistribution.uniform()
    beta = wsol.ThresholdDistribution.beta_prior(2, 2)
    weights = (
        wsol.UnitWeight(),
        wsol.CostWeight(1, 3),
        wsol.CrossEntropyWeight(1, 2),
        wsol.ValueProdWeight((0.4, 0.3, 0.2)),
        wsol.ValueMaxWeight((0.6, 0.3, 0.1)),
    )
    return [
        (w, d)
        for w in weights
        for d in (uniform, beta)
        if not (isinstance(w, wsol.CrossEntropyWeight) and d is beta)
    ]


class OracleMix:
    """One op checks a fresh series three ways, as `wsol verify` does.

    Ops cycle through the nine legal (weight variant, prior) pairs.
    """

    name = "oracle_mix"
    n = 100
    mc_draws = 20_000

    def __init__(self, seed: int):
        self.seed = seed
        self.pairs = _oracle_pairs()
        self.cycle = len(self.pairs)
        self.traced_ops = 2 * self.cycle
        self.pulls: list[tuple[float, float]] = []
        self.worst_exact_gap = 0.0
        self.report: dict = {}

    def reset(self) -> None:
        pass

    def inputs(self, k: int):
        rng = _rng(self.seed, 3, k)
        labels = (rng.random(self.n) < 0.3).astype(np.int64)
        predictions = _scored_predictions(rng, labels)
        spec, dist = self.pairs[k % self.cycle]
        return predictions, labels, spec, dist, int(rng.integers(2**31))

    def op(self, args):
        predictions, labels, spec, dist, mc_seed = args
        series = wsol.LabeledSeries(predictions, labels)
        closed = wsol.expected_confusion(series, dist, spec)
        exact = wsol.exact_expected_confusion(series, dist, spec)
        mc, se = wsol.mc_expected_confusion(series, dist, spec, self.mc_draws, mc_seed)
        return closed, exact, mc, se

    def check(self, args, out) -> str | None:
        closed, exact, mc, se = out
        values = np.array(closed.entries() + exact.entries() + mc.entries())
        if not np.all(np.isfinite(values)):
            return "non-finite expected entries"
        self.pulls.extend(zip(_entry_gaps(closed, mc), se.entries()))
        gap = float(np.max(_entry_gaps(closed, exact)))
        self.worst_exact_gap = max(self.worst_exact_gap, gap)
        if not gap <= EXACT_TOL:
            spec, dist = args[2], args[3]
            return (
                f"closed form against exact oracle ({spec.name}, {dist.kind}): "
                f"max entry gap {gap:.2e} > {EXACT_TOL}"
            )
        return None

    def mc_bound(self) -> float:
        """Standard errors allowed per comparison for this run's comparison count.

        A two-sided Bonferroni bound: all comparisons of the run together
        flag a correct sampler with probability at most MC_FAMILY_ALPHA.
        """
        return NormalDist().inv_cdf(1.0 - MC_FAMILY_ALPHA / (2 * len(self.pulls)))

    def finish(self) -> list[str]:
        if not self.pulls:
            return ["no op completed"]
        bound = self.mc_bound()
        worst = max(
            gap / se if se > 0 else (math.inf if gap > EXACT_TOL else 0.0)
            for gap, se in self.pulls
        )
        self.report = {
            "exact_worst_gap": self.worst_exact_gap,
            "mc_comparisons": len(self.pulls),
            "mc_bound_se": bound,
            "mc_worst_pull_se": worst,
        }
        if worst > bound:
            return [
                f"Monte Carlo disagrees with the closed form: worst pull {worst:.2f} SE "
                f"> {bound:.2f} SE over {len(self.pulls)} comparisons"
            ]
        return []


WORKLOADS = {cls.name: cls for cls in (TrainValueMax, LossCombined100k, OracleMix)}
