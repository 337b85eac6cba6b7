"""Every check of a closed form, shared by ``wsol verify`` and the acceptance suite.

``finite_diff_gradient`` takes central differences of the loss value,
the check the analytic gradient is held to, and ``expected_score_gap``
compares s(E[wCM]), the negated loss, with an oracle's E[s(wCM)].  Each
``criterion_*`` function runs one acceptance criterion on a
caller-seeded generator, at caller-chosen sizes, and returns the worst
values it measured, unjudged.  ``tests/test_acceptance.py`` pins their
seeds, full sizes and tolerances; ``run_verify`` runs them at reduced
sizes and judges them by the same tolerances, restated below and checked
equal by that suite.  The oracles share no code with the closed forms,
and no closed-form module imports this one or an oracle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .confusion import hard_entries
from .errors import UnsupportedCombinationError, ValidationError
from .expected import expected_confusion
from .loss import LossSpec, loss_gradient, loss_value
from .oracle import (
    exact_expected_confusion,
    exact_expected_score,
    mc_expected_confusion,
    mc_expected_score,
)
from .scores import ScoreKind, apply_score
from .series import LabeledSeries
from .threshold import ThresholdDistribution
from .weights import (
    CostWeight,
    CrossEntropyWeight,
    UnitWeight,
    ValueMaxWeight,
    ValueProdWeight,
    WeightSpec,
    _chain_members,
)

EXACT_TOL = 1e-10
MC_SIGMA = 4.0
CE_TOL = 1e-12
GRAD_RTOL = 1e-5
REWARD_TOL = 1e-12

# Monte Carlo draws per oracle call in run_verify, unless ``wsol verify
# --samples`` sets them.
DEFAULT_MC_SAMPLES = 20000

PRIORS = (
    ThresholdDistribution.uniform(),
    ThresholdDistribution.beta_prior(2.0, 2.0),
)


@dataclass(frozen=True)
class FiniteDiffGradient:
    """Central-difference loss gradient; flagged entries hit the (0,1) clamp."""

    values: np.ndarray
    clamped_indices: tuple[int, ...] = ()


def finite_diff_gradient(series: LabeledSeries, spec, step: float = 1e-6):
    """Central differences of the loss value with respect to each prediction.

    Entries whose two-sided stencil would leave (0, 1) are evaluated with
    the stencil shifted inward and flagged.
    """
    if not (1e-8 <= step <= 1e-3):
        raise ValidationError("finite-difference step must lie in [1e-8, 1e-3]")
    p0 = series.predictions
    values = np.empty(series.n)
    clamped = []
    for i in range(series.n):
        lo = p0[i] - step
        hi = p0[i] + step
        if lo <= 0.0 or hi >= 1.0:
            clamped.append(i)
            lo = max(lo, p0[i] / 2)
            hi = min(hi, (1.0 + p0[i]) / 2)
        sides = []
        for x in (hi, lo):
            p = p0.copy()
            p[i] = x
            sides.append(loss_value(series.with_predictions(p), spec))
        values[i] = (sides[0] - sides[1]) / (hi - lo)
    return FiniteDiffGradient(values=values, clamped_indices=tuple(clamped))


@dataclass(frozen=True)
class ScoreGap:
    """Both sides of the loss/score alignment and their difference.

    ``score_of_expected`` is s(E[wCM]) (the negated loss);
    ``expected_score`` is E[s(wCM)] from an oracle.  For linear scores
    the gap vanishes; for nonlinear scores it quantifies the remainder
    the loss construction accepts.
    """

    score_of_expected: float
    expected_score: float
    gap: float
    stderr: float = 0.0


def expected_score_gap(
    series: LabeledSeries,
    spec: LossSpec,
    mc_samples: int | None = None,
    seed: int = 0,
) -> ScoreGap:
    """Compare s(E[wCM]) with E[s(wCM)].

    With ``mc_samples`` unset the right-hand side comes from the exact
    piecewise oracle (stderr 0); otherwise from Monte Carlo with its
    standard error.
    """
    lhs = -loss_value(series, spec)
    if mc_samples is None:
        rhs = exact_expected_score(series, spec.dist, spec.weights, spec.score)
        se = 0.0
    else:
        est = mc_expected_score(
            series, spec.dist, spec.weights, spec.score, mc_samples, seed
        )
        rhs = est.mean
        se = est.stderr
    return ScoreGap(
        score_of_expected=lhs, expected_score=rhs, gap=rhs - lhs, stderr=se
    )


def random_series(rng: np.random.Generator, n: int | None = None) -> LabeledSeries:
    """Series of 4-50 samples (or ``n``) with both classes present.

    Predictions are uniform on (0.02, 0.98); each label is 1 with rate 0.4.
    """
    n = n or int(rng.integers(4, 51))
    preds = rng.uniform(0.02, 0.98, size=n)
    labels = (rng.random(n) < 0.4).astype(int)
    if labels.sum() == 0:
        labels[int(rng.integers(0, n))] = 1
    if labels.sum() == n:
        labels[int(rng.integers(0, n))] = 0
    return LabeledSeries(preds, labels)


def random_omega(rng: np.random.Generator, kind: str) -> tuple[float, ...]:
    """Valid non-increasing omega of length 1-6 for ``prod`` or ``max``."""
    t = int(rng.integers(1, 7))
    raw = np.sort(rng.uniform(0.0, 1.0, size=t))[::-1]
    if kind == "prod":
        raw = raw / (raw.sum() + rng.uniform(0.05, 1.0))
    else:
        raw = raw * rng.uniform(0.3, 0.99) / max(raw.max(), 1e-12)
    return tuple(np.sort(raw)[::-1])


def weight_menu(rng: np.random.Generator) -> list[WeightSpec]:
    """One spec of each variant with random parameters."""
    return [
        UnitWeight(),
        CostWeight(c01=float(rng.uniform(0.1, 4)), c10=float(rng.uniform(0.1, 4))),
        CrossEntropyWeight(
            omega0=float(rng.uniform(0.2, 3)), omega1=float(rng.uniform(0.2, 3))
        ),
        ValueProdWeight(omega=random_omega(rng, "prod")),
        ValueMaxWeight(omega=random_omega(rng, "max")),
    ]


def _worst(*values: float) -> float:
    """The largest value; a NaN, which fails every bound, is kept."""
    return float(np.max(values))


def _supports(spec: WeightSpec, dist: ThresholdDistribution) -> bool:
    try:
        spec.check_prior(dist)
    except UnsupportedCombinationError:
        return False
    return True


def closed_form_protocol(
    rng: np.random.Generator,
    runs: int,
    mc_draws: int = 0,
    mc_seed: int = 0,
    make_specs: Callable[[np.random.Generator], list[WeightSpec]] = weight_menu,
) -> dict[str, float]:
    """Closed-form expected matrices against both oracles (criteria 1 and 2).

    Run k draws a series, takes prior k % 2 and then draws the specs of
    ``make_specs``.  Each spec the prior supports is compared with the
    exact oracle (``exact``: max |closed - exact| over the four entries)
    and, unless ``mc_draws`` is 0, with a Monte Carlo estimate seeded
    ``mc_seed + k`` (``pull``: max |closed - mean| / stderr on e_wfn,
    ``pull_any``: the same over all four entries).
    """
    worst = {"exact": 0.0, "pull": 0.0, "pull_any": 0.0} if mc_draws else {"exact": 0.0}
    for k in range(runs):
        dist = PRIORS[k % 2]
        series = random_series(rng)
        for spec in make_specs(rng):
            if not _supports(spec, dist):
                continue
            closed = np.array(expected_confusion(series, dist, spec).entries())
            exact = np.array(exact_expected_confusion(series, dist, spec).entries())
            worst["exact"] = _worst(worst["exact"], *np.abs(closed - exact))
            if not mc_draws:
                continue
            mean, se = mc_expected_confusion(series, dist, spec, mc_draws, seed=mc_seed + k)
            pulls = np.abs(closed - mean.entries()) / np.maximum(se.entries(), 1e-12)
            worst["pull"] = _worst(worst["pull"], pulls[2])
            worst["pull_any"] = _worst(worst["pull_any"], *pulls)
    return worst


def criterion_prod_window(
    rng: np.random.Generator, runs: int, mc_draws: int = 0, mc_seed: int = 0
) -> dict[str, float]:
    """Criterion 1: the dot-product value-window closed form.

    The protocol's measures, with a hand-derived case folded into ``exact``.
    """
    worst = closed_form_protocol(
        rng,
        runs,
        mc_draws,
        mc_seed,
        lambda r: [ValueProdWeight(omega=random_omega(r, "prod"))],
    )
    # One positive with window (0.9, 0.2) in lag order (nearest first),
    # prediction 0.5, omega (0.4, 0.2): reduction is 0.4*(0.9-0.5), so the
    # contribution is 1-0.5-0.16 = 0.34.
    series = LabeledSeries(np.array([0.3, 0.2, 0.9, 0.5]), np.array([0, 0, 0, 1]))
    hand = expected_confusion(series, PRIORS[0], ValueProdWeight(omega=(0.4, 0.2)))
    worst["exact"] = _worst(worst["exact"], abs(hand.e_wfn - 0.34))
    return worst


# Worked max-window decompositions: past predictions in lag order (nearest
# first), then their (lag, lower, upper, precursor) intervals, whose lags
# form the chain.
WORKED_WINDOWS = (
    ((0.5, 0.6, 0.1, 0.8), [(1, 0.0, 0.5, 0), (2, 0.5, 0.6, 1), (4, 0.6, 0.8, 2)]),
    ((0.7, 0.2, 0.9, 0.3), [(1, 0.0, 0.7, 0), (3, 0.7, 0.9, 1)]),
)


def criterion_max_window(
    rng: np.random.Generator,
    runs: int,
    constant_runs: int,
    mc_draws: int = 0,
    mc_seed: int = 0,
) -> dict[str, float]:
    """Criterion 2: the max value-window closed form.

    The protocol's measures, with the worked windows (ahead of a positive)
    folded into ``exact``; ``window_mismatches`` among their decompositions;
    and ``constant_omega``, the max gap to the constant-omega reduction, in
    which only the largest chain prediction counts, over ``constant_runs``
    series per prior.
    """
    worst = closed_form_protocol(
        rng,
        runs,
        mc_draws,
        mc_seed,
        lambda r: [ValueMaxWeight(omega=random_omega(r, "max"))],
    )
    worst["window_mismatches"] = 0
    for window, intervals in WORKED_WINDOWS:
        # The window's chain, read off the closed form's own marking: lag j
        # is a member when its lead reaches the last sample.  Each member's
        # interval runs up from its precursor's prediction.
        preds = np.concatenate([window[::-1], [0.45]])
        lead = _chain_members(preds, 0.0, len(window))[0][-2::-1]
        lags = np.arange(1, len(window) + 1)
        got, lower, precursor = [], 0.0, 0
        for lag in lags[lead >= lags].tolist():
            got.append((lag, lower, window[lag - 1], precursor))
            lower, precursor = window[lag - 1], lag
        worst["window_mismatches"] += got != intervals
        series = LabeledSeries(preds, np.array([0, 0, 0, 0, 1]))
        spec = ValueMaxWeight((0.6, 0.5, 0.4, 0.3))
        closed = expected_confusion(series, PRIORS[0], spec)
        exact = exact_expected_confusion(series, PRIORS[0], spec)
        worst["exact"] = _worst(worst["exact"], abs(closed.e_wfn - exact.e_wfn))

    worst["constant_omega"] = 0.0
    for dist in PRIORS:
        for _ in range(constant_runs):
            series = random_series(rng)
            c = float(rng.uniform(0.1, 0.95))
            t = int(rng.integers(1, 7))
            cdf = dist.cdf(series.predictions)
            manual = 0.0
            for i in np.flatnonzero(series.pos):
                depth = min(t, int(i))
                contrib = 1.0 - cdf[i]
                if depth:
                    top = float(np.max(series.predictions[i - depth : i]))
                    contrib -= c * (
                        dist.cdf(top) - dist.cdf(min(top, series.predictions[i]))
                    )
                manual += contrib
            got = expected_confusion(series, dist, ValueMaxWeight((c,) * t)).e_wfn
            worst["constant_omega"] = _worst(worst["constant_omega"], abs(got - manual))
    return worst


def criterion_linear_score(
    rng: np.random.Generator, runs: int, mc_draws: int, mc_seed: int
) -> dict[str, float]:
    """Criterion 3: under the linear score, -loss equals the expected score.

    Each run draws the weight menu and, for each spec and supported prior,
    a fresh series.  ``exact`` is the max gap to the exact oracle's
    expected score, ``pull`` the max Monte Carlo gap over its stderr.
    """
    worst = {"exact": 0.0, "pull": 0.0}
    for k in range(runs):
        for spec_w in weight_menu(rng):
            for dist in PRIORS:
                if not _supports(spec_w, dist):
                    continue
                series = random_series(rng)
                spec = LossSpec(ScoreKind.NEG_ERROR_SUM, spec_w, dist)
                gap = expected_score_gap(series, spec).gap
                worst["exact"] = _worst(worst["exact"], abs(gap))
                mc = expected_score_gap(series, spec, mc_samples=mc_draws, seed=mc_seed + k)
                pull = abs(mc.gap) / max(mc.stderr, 1e-12)
                worst["pull"] = _worst(worst["pull"], pull)
    return worst


def criterion_cross_entropy(rng: np.random.Generator, runs: int) -> dict[str, float]:
    """Criterion 4: cross-entropy weights plus the linear score give weighted CE.

    ``ce_diff`` is the max |loss - weighted CE| over ``runs`` random
    weights and a last run of unit weights, the classical cross entropy.
    """
    worst = 0.0
    for k in range(runs + 1):
        series = random_series(rng)
        w0, w1 = rng.uniform(1e-6, 5.0, size=2) if k < runs else (1.0, 1.0)
        spec = LossSpec(ScoreKind.NEG_ERROR_SUM, CrossEntropyWeight(w0, w1), PRIORS[0])
        y = series.labels
        p = series.predictions
        reference = -float(np.sum(w0 * (1 - y) * np.log1p(-p) + w1 * y * np.log(p)))
        worst = _worst(worst, abs(loss_value(series, spec) - reference))
    return {"ce_diff": worst}


def criterion_cost_scaling(rng: np.random.Generator, runs: int) -> dict[str, float]:
    """Criterion 5: cost expectations are c01/c10 times the unit ones.

    ``cost_residual`` is the max residual over ``runs`` series per prior;
    the scaling is exact, so anything but 0.0 is a failure.
    """
    worst = 0.0
    for dist in PRIORS:
        for _ in range(runs):
            series = random_series(rng)
            c01, c10 = rng.uniform(0.0, 6.0, size=2)
            unit = expected_confusion(series, dist, UnitWeight())
            cost = expected_confusion(series, dist, CostWeight(c01=c01, c10=c10))
            worst = _worst(
                worst,
                abs(cost.e_wfp - c01 * unit.e_wfp),
                abs(cost.e_wfn - c10 * unit.e_wfn),
            )
    return {"cost_residual": worst}


def criterion_gradient(rng: np.random.Generator, configs: int) -> dict[str, float]:
    """Criterion 6: loss gradients match central differences.

    Cycles weight variants, priors and scores over ``configs`` smooth
    configurations, drawing again on a kink; ``grad_rel`` is the max
    relative error.
    """
    checked = 0
    worst = 0.0
    k = 0
    while checked < configs:
        k += 1
        series = random_series(rng, n=int(rng.integers(6, 20)))
        spec_w = weight_menu(rng)[k % 5]
        dist = PRIORS[k % 2] if _supports(spec_w, PRIORS[k % 2]) else PRIORS[0]
        spec = LossSpec(list(ScoreKind)[k % 5], spec_w, dist)
        grad = loss_gradient(series, spec)
        if grad.nonsmooth:
            continue
        checked += 1
        fd = finite_diff_gradient(series, spec, step=1e-6)
        rel = np.max(
            np.abs(grad.values - fd.values) / np.maximum(np.abs(grad.values), 1.0)
        )
        worst = _worst(worst, rel)
    return {"grad_rel": worst}


def criterion_reward_only(rng: np.random.Generator, draws: int) -> dict[str, float]:
    """Criterion 7: value weights never raise an error entry or lower a score.

    Each draw forces one true positive and one true negative at a random
    threshold, so every score denominator stays alive.  ``reward_excess``
    is the max rise of an error entry or drop of a score (0.0 if none);
    ``hss_checked`` counts the draws at or above chance, the only ones on
    which HSS is monotone and compared.
    """
    worst = {"reward_excess": 0.0, "hss_checked": 0}
    for _ in range(draws):
        series = random_series(rng)
        tau = float(rng.uniform(0.1, 0.9))
        preds = series.predictions.copy()
        preds[np.flatnonzero(series.pos)[0]] = min(tau + 0.05, 0.99)
        preds[np.flatnonzero(series.neg)[0]] = max(tau - 0.05, 0.01)
        series = series.with_predictions(preds)
        if rng.random() < 0.5:
            spec = ValueProdWeight(random_omega(rng, "prod"))
        else:
            spec = ValueMaxWeight(random_omega(rng, "max"))
        cm, wc = hard_entries(series, (tau,), spec)[..., 0].T
        tn, fp, fn, tp = cm
        _, wfp, wfn, _ = wc
        above_chance = bool(tp * tn >= fp * fn)
        worst["hss_checked"] += above_chance
        drops = [
            apply_score(kind, *cm).value - apply_score(kind, *wc).value
            for kind in ScoreKind
            if kind is not ScoreKind.HSS or above_chance
        ]
        worst["reward_excess"] = _worst(
            worst["reward_excess"], wfn - fn, wfp - fp, *drops
        )
    return worst


# The bound on each judged measure, at the acceptance tolerances.  A
# measure passes below its bound or at 0, the bound of the exact ones.
_BOUNDS = {
    "exact": EXACT_TOL,
    "constant_omega": EXACT_TOL,
    "pull": MC_SIGMA,
    "pull_any": MC_SIGMA,
    "window_mismatches": 0,
    "ce_diff": CE_TOL,
    "cost_residual": 0.0,
    "grad_rel": GRAD_RTOL,
    "reward_excess": REWARD_TOL,
}

# Name, protocol, its sizes at verify scale (the whole suite stays under a
# second) and whether it takes the Monte Carlo draws and seed.
_CHECKS = [
    ("closed_vs_exact_all_variants", closed_form_protocol, (12,), False),
    ("closed_vs_mc_all_variants", closed_form_protocol, (2,), True),
    ("thm2_prod_window_closed_form", criterion_prod_window, (50,), False),
    ("thm3_max_window_closed_form", criterion_max_window, (50, 10), False),
    ("thm1_linear_score_equality", criterion_linear_score, (1,), True),
    ("weighted_cross_entropy_identity", criterion_cross_entropy, (30,), False),
    ("cost_scaling_exact", criterion_cost_scaling, (10,), False),
    ("gradient_matches_finite_differences", criterion_gradient, (24,), False),
    ("value_weights_reward_only", criterion_reward_only, (120,), False),
]


def run_verify(
    seed: int = 2024, samples: int = DEFAULT_MC_SAMPLES, only: str | None = None
) -> list[dict]:
    """Run the checks whose name contains ``only`` (all of them by default).

    Check i draws from a generator seeded ``seed + i`` and passes when
    every judged measure meets its rule.  Each row holds the check's
    ``name``, ``passed``, ``detail`` (each measure, the failing ones
    first) and ``seconds``.
    """
    rows = []
    for i, (name, protocol, sizes, monte_carlo) in enumerate(_CHECKS):
        if only and only not in name:
            continue
        start = time.perf_counter()
        mc = {"mc_draws": samples, "mc_seed": seed} if monte_carlo else {}
        worst = protocol(np.random.default_rng(seed + i), *sizes, **mc)
        failed = [
            k for k, v in worst.items() if not (v < _BOUNDS.get(k, np.inf) or v == 0)
        ]
        detail = "; ".join(
            [f"{k} {worst[k]:.3g} out of bounds" for k in failed]
            + [f"{k} {v:.3g}" for k, v in worst.items() if k not in failed]
        )
        seconds = round(time.perf_counter() - start, 3)
        rows.append(
            {"name": name, "passed": not failed, "detail": detail, "seconds": seconds}
        )
    return rows


def format_table(rows: list[dict]) -> str:
    width = max((len(r["name"]) for r in rows), default=10)
    return "\n".join(
        f"{'PASS' if r['passed'] else 'FAIL'}  {r['name'].ljust(width)}  "
        f"{r['seconds']:6.2f}s  {r['detail']}"
        for r in rows
    )
