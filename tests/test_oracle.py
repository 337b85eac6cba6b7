import ast
from pathlib import Path

import numpy as np
import pytest

from helpers import make_series, reference_weight, weight_menu
from wsol import confusion, oracle
from wsol.confusion import _BATCH_ELEMENTS, batch_weighted_entries, sweep_thresholds
from wsol.errors import ValidationError
from wsol.expected import expected_confusion
from wsol.loss import LossSpec
from wsol.oracle import (
    _CHUNK,
    exact_expected_confusion,
    exact_expected_score,
    mc_expected_confusion,
    mc_expected_score,
)
from wsol.scores import ScoreKind, score_array
from wsol.series import LabeledSeries
from wsol.verify import finite_diff_gradient
from wsol.weights import (
    CostWeight,
    CrossEntropyWeight,
    UnitWeight,
    ValueMaxWeight,
)


def per_sample_entries(series, tau, spec):
    """(tn, wfp, wfn, tp) at one threshold, summed sample by sample."""
    tn = wfp = wfn = tp = 0.0
    for i in range(series.n):
        alarm = series.predictions[i] > tau
        if series.labels[i] == 1:
            if alarm:
                tp += 1
            else:
                wfn += reference_weight(spec, tau, i, series)
        elif alarm:
            wfp += reference_weight(spec, tau, i, series)
        else:
            tn += 1
    return tn, wfp, wfn, tp


class TestExactOracle:
    def test_reproduces_unit_closed_forms(self, rng, both_priors):
        for dist in both_priors:
            series = make_series(rng)
            exact = exact_expected_confusion(series, dist, UnitWeight())
            closed = expected_confusion(series, dist, UnitWeight())
            for a, b in zip(exact.entries(), closed.entries()):
                assert a == pytest.approx(b, abs=1e-12)

    def test_duplicate_prediction_values(self, uniform01):
        # All predictions equal: a single interior breakpoint.
        series = LabeledSeries(np.full(8, 0.4), np.array([0, 1] * 4))
        exact = exact_expected_confusion(series, uniform01, UnitWeight())
        closed = expected_confusion(series, uniform01, UnitWeight())
        for a, b in zip(exact.entries(), closed.entries()):
            assert a == pytest.approx(b, abs=1e-12)


def assert_columns_match_scalar_path(series, taus, spec, rel=None):
    """Counts equal, weighted entries within 1e-12 (and ``rel`` of their size)."""
    tn, wfp, wfn, tp = batch_weighted_entries(series, taus, spec)
    for k, tau in enumerate(taus):
        ref_tn, ref_wfp, ref_wfn, ref_tp = per_sample_entries(series, float(tau), spec)
        assert tn[k] == ref_tn and tp[k] == ref_tp
        assert wfp[k] == pytest.approx(ref_wfp, rel=rel, abs=1e-12)
        assert wfn[k] == pytest.approx(ref_wfn, rel=rel, abs=1e-12)


class TestBatchEntries:
    def test_columns_match_scalar_path(self, rng, both_priors):
        for dist in both_priors:
            series = make_series(rng, n=15)
            taus = dist.sample(np.random.default_rng(4), 25)
            for spec in weight_menu(rng):
                assert_columns_match_scalar_path(series, taus, spec)

    def test_blocked_sweep_matches_scalar_path(self, rng):
        # At n = 700 a block holds 93 thresholds, so the 99-threshold sweep
        # grid spans two blocks.  The weighted sums reach about 1400 here,
        # where the sample-by-sample reference is itself a few 1e-12 off the
        # exactly rounded sum, so 1e-12 also applies relative to their size.
        series = make_series(rng, n=700)
        grid = sweep_thresholds()
        assert _BATCH_ELEMENTS // series.n < grid.size == 99
        for spec in weight_menu(rng):
            for taus in (np.array([0.37]), grid):
                assert_columns_match_scalar_path(series, taus, spec, rel=1e-12)


class TestMonteCarlo:
    def test_deterministic_given_seed(self, rng, uniform01):
        series = make_series(rng)
        a = mc_expected_confusion(series, uniform01, UnitWeight(), 5000, 99)
        b = mc_expected_confusion(series, uniform01, UnitWeight(), 5000, 99)
        assert a[0].entries() == b[0].entries()
        assert a[1].entries() == b[1].entries()

    def test_single_sample_mean(self, uniform01):
        series = LabeledSeries(np.array([0.7]), np.array([1]))
        mean, se = mc_expected_confusion(series, uniform01, UnitWeight(), 200_000, 5)
        assert abs(mean.e_tp - 0.7) < 3 * se.e_tp

    def test_agrees_with_exact_oracle(self, rng, both_priors):
        for dist in both_priors:
            series = make_series(rng, n=20)
            for spec in weight_menu(rng):
                if spec.name == "cross_entropy" and dist.kind != "uniform":
                    continue
                exact = np.array(exact_expected_confusion(series, dist, spec).entries())
                mean, se = mc_expected_confusion(series, dist, spec, 40_000, 21)
                pulls = np.abs(exact - np.array(mean.entries())) / np.maximum(
                    np.array(se.entries()), 1e-12
                )
                assert np.max(pulls) < 4.0

    def test_minimum_sample_count(self, rng, uniform01):
        series = make_series(rng)
        with pytest.raises(ValidationError):
            mc_expected_confusion(series, uniform01, UnitWeight(), 100, 0)

    def test_matches_per_draw_average(self, rng, both_priors):
        # Grouping draws by threshold cell must reproduce the plain per-draw
        # mean and standard error, also for draws equal to a prediction:
        # those raise no alarm there, so they belong to the cell above it.
        # The larger size spans three sampling chunks, the last one short,
        # so its cells hold draws of several chunks; one sample() call
        # gives the oracle's stream, which does not depend on the chunks.
        # The score estimate's mean and degenerate count are per-draw too.
        for samples, seed in ((3000, 17), (2 * _CHUNK + 500, 31)):
            for dist in both_priors:
                taus = dist.sample(np.random.default_rng(seed), samples)
                series = make_series(rng, n=40)
                p = series.predictions.copy()
                p[::3] = taus[:: samples // 14][: p[::3].size]
                series = series.with_predictions(p)
                for spec in weight_menu(rng):
                    per_draw = batch_weighted_entries(series, taus, spec)
                    mean, se = mc_expected_confusion(series, dist, spec, samples, seed)
                    np.testing.assert_allclose(
                        mean.entries(), per_draw.mean(axis=1), rtol=1e-12
                    )
                    np.testing.assert_allclose(
                        se.entries(),
                        per_draw.std(axis=1, ddof=1) / np.sqrt(samples),
                        rtol=1e-12,
                    )
                    vals, bad = score_array(ScoreKind.TSS, *per_draw)
                    est = mc_expected_score(
                        series, dist, spec, ScoreKind.TSS, samples, seed
                    )
                    assert est.degenerate_draws == int(bad.sum())
                    assert est.mean == pytest.approx(vals.mean(), rel=1e-12)

    def test_degenerate_draws_match_per_draw_count(self, rng, both_priors):
        # With c10 = 0 a missed positive costs nothing, so TSS is degenerate
        # at every draw above the highest positive prediction and F1 at
        # every draw above the highest prediction.
        spec = CostWeight(c01=1.0, c10=0.0)
        for samples, seed in ((4000, 23), (2 * _CHUNK + 500, 37)):
            for dist in both_priors:
                taus = dist.sample(np.random.default_rng(seed), samples)
                series = make_series(rng, n=30)
                for kind in (ScoreKind.TSS, ScoreKind.F1):
                    vals, bad = score_array(
                        kind, *batch_weighted_entries(series, taus, spec)
                    )
                    est = mc_expected_score(series, dist, spec, kind, samples, seed)
                    assert 0 < est.degenerate_draws < samples
                    assert est.degenerate_draws == int(bad.sum())
                    assert est.mean == pytest.approx(vals.mean(), rel=1e-12)

    def test_evaluates_once_per_estimate_at_drawn_thresholds(
        self, rng, uniform01, monkeypatch
    ):
        samples, seed = 2 * _CHUNK + 500, 29
        draws = uniform01.sample(np.random.default_rng(seed), samples)
        calls = []

        def recording(series, taus, spec):
            calls.append(np.array(taus))
            return batch_weighted_entries(series, taus, spec)

        monkeypatch.setattr("wsol.oracle.batch_weighted_entries", recording)
        series = make_series(rng, n=30)
        spec = ValueMaxWeight((0.5, 0.2))
        mc_expected_confusion(series, uniform01, spec, samples, seed)
        assert len(calls) == 1
        mc_expected_score(series, uniform01, spec, ScoreKind.TSS, samples, seed)
        assert len(calls) == 2
        for taus in calls:
            assert 0 < taus.size <= series.n + 1
            assert np.all(np.isin(taus, draws))


class TestExpectedScore:
    def test_linear_score_matches_entry_sums(self, rng, uniform01):
        series = make_series(rng)
        spec = ValueMaxWeight((0.5, 0.2))
        exact = exact_expected_confusion(series, uniform01, spec)
        est = mc_expected_score(
            series, uniform01, spec, ScoreKind.NEG_ERROR_SUM, 50_000, 13
        )
        assert abs(est.mean - (-(exact.e_wfp + exact.e_wfn))) < 4 * est.stderr

    def test_perfect_series_scores_one_everywhere(self, uniform01):
        series = LabeledSeries(
            np.array([0.9, 0.9, 0.1, 0.1]), np.array([1, 1, 0, 0])
        )
        # Hard TSS is 1 whenever the threshold separates 0.1 from 0.9 and 0
        # on the two 0.1-wide slabs outside, so the expectation is 0.8.
        val = exact_expected_score(series, uniform01, UnitWeight(), ScoreKind.TSS)
        assert val == pytest.approx(0.8, abs=1e-12)
        est = mc_expected_score(series, uniform01, UnitWeight(), ScoreKind.TSS, 20_000, 1)
        assert abs(est.mean - val) < 4 * est.stderr

    def test_random_series_reports_finite_stats(self, rng, beta22):
        series = make_series(rng)
        est = mc_expected_score(series, beta22, UnitWeight(), ScoreKind.TSS, 10_000, 2)
        assert np.isfinite(est.mean) and np.isfinite(est.stderr)
        assert est.draws == 10_000


class TestFiniteDifferences:
    def test_linear_case_sign_pattern(self, rng, uniform01):
        series = make_series(rng, n=10)
        spec = LossSpec(ScoreKind.NEG_ERROR_SUM, UnitWeight(), uniform01)
        fd = finite_diff_gradient(series, spec)
        expected = np.where(series.labels == 0, 1.0, -1.0)
        np.testing.assert_allclose(fd.values, expected, atol=1e-6)

    def test_step_halving_improves_quadratically(self, uniform01):
        # Central differences of a smooth nonlinear loss: halving the step
        # should shrink the error roughly fourfold.
        series = LabeledSeries(
            np.array([0.3, 0.6, 0.8, 0.45]), np.array([0, 1, 1, 0])
        )
        spec = LossSpec(
            ScoreKind.NEG_ERROR_SUM,
            CrossEntropyWeight(omega0=1.0, omega1=1.0),
            uniform01,
        )
        y = series.labels
        p = series.predictions
        truth = (1 - y) / (1 - p) - y / p
        err_big = np.max(
            np.abs(finite_diff_gradient(series, spec, step=8e-4).values - truth)
        )
        err_small = np.max(
            np.abs(finite_diff_gradient(series, spec, step=4e-4).values - truth)
        )
        assert err_small < err_big / 2.5

    def test_boundary_clamp_flags(self, uniform01):
        series = LabeledSeries(np.array([0.9999999, 0.5]), np.array([1, 0]))
        spec = LossSpec(ScoreKind.NEG_ERROR_SUM, UnitWeight(), uniform01)
        fd = finite_diff_gradient(series, spec, step=1e-6)
        assert fd.clamped_indices == (0,)

    def test_step_domain(self, rng, uniform01):
        series = make_series(rng)
        spec = LossSpec(ScoreKind.TSS, UnitWeight(), uniform01)
        with pytest.raises(ValidationError):
            finite_diff_gradient(series, spec, step=1e-2)


CLOSED_FORM_NAMES = {
    "expected_errors",
    "_window_credit",
    "error_slopes",
    "_lag_rows",
    "_chain_rows",
    "_add_lag",
    "_chain_members",
    "expected_confusion",
    "evaluate_loss",
    "loss_value",
}


def test_oracles_import_no_closed_form():
    # The oracles check the closed forms, so they must not reach them: no
    # import of wsol.loss at any depth, only the result record from
    # wsol.expected and the hard-matrix engine from wsol.confusion, and no
    # closed-form name anywhere in the module.  wsol.confusion, the hard
    # matrix the oracles integrate, is held to the same rule and imports
    # neither wsol.loss nor wsol.expected.
    oracle_only = {
        "expected": {"ExpectedConfusion"},
        "confusion": {"batch_weighted_entries"},
    }
    for module, only in ((oracle, oracle_only), (confusion, {"expected": None})):
        tree = ast.parse(Path(module.__file__).read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                source = (node.module or "").removeprefix("wsol.")
                imported.setdefault(source, set()).update(a.name for a in node.names)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    imported.setdefault(alias.name.removeprefix("wsol."), set())
        assert "loss" not in imported
        for source, names in only.items():
            assert imported.get(source) == names
        names = {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
        }
        assert names.isdisjoint(CLOSED_FORM_NAMES)
        assert set().union(*imported.values()).isdisjoint(CLOSED_FORM_NAMES)


# The closed forms and the hard matrix they average; errors is shared by all.
CLOSED_FORM_STACK = (
    "series",
    "threshold",
    "weights",
    "scores",
    "expected",
    "confusion",
    "loss",
)


def test_closed_forms_import_no_checker():
    # The oracles and wsol.verify check the closed-form stack, so no module
    # of that stack may import them, or anything else of the package: each
    # wsol import names a module of the stack or wsol.errors.
    allowed = {*CLOSED_FORM_STACK, "errors"}
    package = Path(oracle.__file__).parent
    reached = {}
    for name in CLOSED_FORM_STACK:
        tree = ast.parse((package / f"{name}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                targets = [node.module] if node.module else [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module.startswith("wsol"):
                targets = [node.module.removeprefix("wsol").removeprefix(".")]
            elif isinstance(node, ast.Import):
                targets = [
                    a.name.removeprefix("wsol").removeprefix(".")
                    for a in node.names
                    if a.name.split(".")[0] == "wsol"
                ]
            else:
                continue
            reached.setdefault(name, set()).update(targets)
    assert all("errors" in reached[name] for name in CLOSED_FORM_STACK)
    assert {m: r - allowed for m, r in reached.items() if r - allowed} == {}
