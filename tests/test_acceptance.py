"""Acceptance suite: one test per criterion, each printing a PASS line.

The protocols of criteria 1-7 live in ``wsol.verify``, which ``wsol
verify`` also runs at reduced sizes.  This file pins their seeds and full
sizes, and the tolerances below, which are pinned here and nowhere else;
``wsol.verify`` must use the same ones.  Criteria 8-10 and the model half
of criterion 6 are written out here.
"""

import time

import numpy as np
import pytest

from wsol import verify
from wsol.confusion import hard_confusion
from wsol.loss import LossSpec, loss_gradient, loss_value
from wsol.multilabel import (
    Aggregator,
    MultilabelSeries,
    MultilabelSpec,
    multilabel_wsol,
)
from wsol.scores import ScoreKind
from wsol.series import LabeledSeries
from wsol.threshold import ThresholdDistribution
from wsol.trainer import MLPModel, SyntheticSeriesConfig, paired_comparison
from wsol.weights import CrossEntropyWeight, UnitWeight, ValueMaxWeight

EXACT_TOL = 1e-10  # closed form vs the exact piecewise oracle, absolute
MC_SIGMA = 4.0  # closed form vs Monte Carlo, in standard errors
CE_TOL = 1e-12  # loss vs the weighted cross entropy
GRAD_RTOL = 1e-5  # gradient vs central differences, relative
REWARD_TOL = 1e-12  # rise of an error entry or drop of a score by value weights
MC_DRAWS = 100_000


def _report(num: int, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d}: PASS - {detail}")


def test_verify_uses_the_pinned_tolerances():
    for name in ("EXACT_TOL", "MC_SIGMA", "CE_TOL", "GRAD_RTOL", "REWARD_TOL"):
        assert getattr(verify, name) == globals()[name], name


def test_criterion_01_prod_window_closed_form():
    start = time.perf_counter()
    worst = verify.criterion_prod_window(
        np.random.default_rng(101), runs=200, mc_draws=MC_DRAWS, mc_seed=1000
    )
    elapsed = time.perf_counter() - start
    assert worst["exact"] < EXACT_TOL
    assert worst["pull"] < MC_SIGMA
    assert elapsed < 60.0
    _report(
        1,
        f"200 series: exact diff {worst['exact']:.1e}, "
        f"mc pull {worst['pull']:.2f} sigma, {elapsed:.1f}s",
    )


def test_criterion_02_max_window_closed_form():
    start = time.perf_counter()
    worst = verify.criterion_max_window(
        np.random.default_rng(202),
        runs=200,
        constant_runs=20,
        mc_draws=MC_DRAWS,
        mc_seed=1000,
    )
    elapsed = time.perf_counter() - start
    assert worst["window_mismatches"] == 0
    assert worst["exact"] < EXACT_TOL
    assert worst["constant_omega"] < EXACT_TOL
    assert worst["pull"] < MC_SIGMA
    assert elapsed < 60.0
    _report(
        2,
        f"200 series + worked windows: exact diff {worst['exact']:.1e}, "
        f"constant-omega diff {worst['constant_omega']:.1e}, "
        f"mc pull {worst['pull']:.2f} sigma, {elapsed:.1f}s",
    )


def test_criterion_03_linear_score_equality():
    worst = verify.criterion_linear_score(
        np.random.default_rng(303), runs=10, mc_draws=30_000, mc_seed=3000
    )
    assert worst["exact"] < EXACT_TOL
    assert worst["pull"] < MC_SIGMA
    _report(
        3,
        f"all five variants, both priors: exact gap {worst['exact']:.1e}, "
        f"mc pull {worst['pull']:.2f} sigma",
    )


def test_criterion_04_weighted_cross_entropy_identity():
    worst = verify.criterion_cross_entropy(np.random.default_rng(404), runs=100)
    assert worst["ce_diff"] < CE_TOL
    _report(4, f"100 random series: max |loss - weighted CE| = {worst['ce_diff']:.1e}")


def test_criterion_05_cost_scaling_exact():
    worst = verify.criterion_cost_scaling(np.random.default_rng(505), runs=25)
    assert worst["cost_residual"] == 0.0
    _report(5, "cost expectations equal c01/c10 times unit, bitwise")


def test_criterion_06_gradient_correctness():
    rng = np.random.default_rng(606)
    worst = verify.criterion_gradient(rng, configs=100)["grad_rel"]
    assert worst < GRAD_RTOL

    # Full model composition on a 2-4-1 network, every weight variant.
    scores = list(ScoreKind)
    x = rng.normal(size=(14, 2))
    y = (rng.random(14) < 0.45).astype(int)
    y[0], y[1] = 1, 0
    worst_model = 0.0
    for k, spec_w in enumerate(verify.weight_menu(rng)):
        spec = LossSpec(scores[k % 5], spec_w, verify.PRIORS[0])
        model = MLPModel.init((2, 4, 1), seed=k)
        preds = model.forward(x)
        dl = loss_gradient(LabeledSeries(preds, y), spec).values
        grad_w, grad_b = model.backward(model.propagate(x), dl)
        for arrs, grads in ((model.weights, grad_w), (model.biases, grad_b)):
            for arr, g in zip(arrs, grads):
                flat = arr.ravel()
                gflat = g.ravel()
                for idx in range(flat.size):
                    orig = flat[idx]
                    h = 1e-6
                    flat[idx] = orig + h
                    up = loss_value(LabeledSeries(model.forward(x), y), spec)
                    flat[idx] = orig - h
                    down = loss_value(LabeledSeries(model.forward(x), y), spec)
                    flat[idx] = orig
                    fd_val = (up - down) / (2 * h)
                    rel = abs(fd_val - gflat[idx]) / max(abs(gflat[idx]), 1.0)
                    worst_model = max(worst_model, rel)
    assert worst_model < 1e-4
    _report(
        6,
        f"100 prediction-gradient configs (max rel {worst:.1e}); "
        f"model composition max rel {worst_model:.1e}",
    )


def test_criterion_07_value_weights_reward_only():
    worst = verify.criterion_reward_only(np.random.default_rng(707), draws=500)
    assert worst["reward_excess"] <= REWARD_TOL
    assert worst["hss_checked"] > 300
    _report(
        7,
        f"500 draws: zero violations (hss checked on {worst['hss_checked']} "
        f"at-or-above-chance draws)",
    )


def test_criterion_08_paired_demo_reproduction(tmp_path):
    from wsol.cli import main

    out = tmp_path / "demo"
    assert main(["demo-figure1", "--out-dir", str(out)]) == 0
    import json

    comparison = json.loads((out / "comparison.json").read_text())
    assert comparison["confusion"] == {"tn": 15, "fp": 4, "fn": 2, "tp": 5}
    from wsol.series import read_series_csv

    series_a = read_series_csv(out / "series_adjacent_errors.csv")
    series_b = read_series_csv(out / "series_isolated_errors.csv")
    for series in (series_a, series_b):
        cm = hard_confusion(series, 0.5)
        assert (cm.tn, cm.tp, cm.fp, cm.fn) == (15, 5, 4, 2)
    for name in ("tss", "hss", "f1"):
        adj = comparison["weighted_scores"]["adjacent_errors"][name]
        iso = comparison["weighted_scores"]["isolated_errors"][name]
        classical = comparison["classical_scores"][name]
        assert iso == pytest.approx(classical, abs=1e-12)
        assert adj > iso
        assert (
            comparison["expected_weighted_scores"]["adjacent_errors"][name]
            > comparison["expected_weighted_scores"]["isolated_errors"][name]
        )
    _report(8, "paired series: same matrix (15,5,4,2), larger weighted scores")


@pytest.mark.parametrize("d", [2, 3, 5])
def test_criterion_09_multilabel_mean_gradient(d):
    rng = np.random.default_rng(909 + d)
    n = 16
    preds = rng.uniform(0.05, 0.95, size=(n, d))
    labels = (rng.random((n, d)) < 0.4).astype(int)
    labels[0] = 1
    labels[1] = 0
    ml = MultilabelSeries(labels, preds)
    uni = ThresholdDistribution.uniform()
    spec = MultilabelSpec(
        class_specs=tuple((uni, UnitWeight()) for _ in range(d)),
        score=ScoreKind.TSS,
        aggregator=Aggregator("mean"),
    )
    _, grad = multilabel_wsol(ml, spec)
    worst = 0.0
    for j in range(d):
        per_class = loss_gradient(
            ml.column(j), LossSpec(ScoreKind.TSS, UnitWeight(), uni)
        )
        worst = max(
            worst, float(np.max(np.abs(grad.values[:, j] - per_class.values / d)))
        )
    assert worst < 1e-12
    _report(9, f"d={d}: mean-aggregated gradient blocks match 1/d scaling ({worst:.1e})")


def test_criterion_10_training_direction():
    start = time.perf_counter()
    uniform = ThresholdDistribution.uniform()
    baseline = LossSpec(
        ScoreKind.NEG_ERROR_SUM, CrossEntropyWeight(1.0, 1.0), uniform
    )
    candidate = LossSpec(ScoreKind.TSS, ValueMaxWeight((0.6, 0.3, 0.1)), uniform)
    table = paired_comparison(
        SyntheticSeriesConfig(n=400, event_rate=0.2, window=3),
        baseline,
        candidate,
        seeds=(1, 2, 3, 4, 5),
        epochs=300,
    )
    elapsed = time.perf_counter() - start
    assert table["median_improvement"] > 0.0
    assert elapsed < 600.0
    _report(
        10,
        f"5 paired runs: median weighted-TSS improvement "
        f"{table['median_improvement']:+.4f} at tau={table['threshold']:.2f} "
        f"({elapsed:.0f}s)",
    )
