import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsol.errors import DegenerateDenominatorError, ValidationError
from wsol.scores import ScoreKind, apply_score, score_array, score_partials

ENTRY_ORDER = ("tn", "wfp", "wfn", "tp")


def fd_partials(kind, tn, wfp, wfn, tp, step=1e-5):
    """Central finite differences of apply_score per entry."""
    base = np.array([tn, wfp, wfn, tp], dtype=float)
    out = np.empty(4)
    for k in range(4):
        hi = base.copy()
        lo = base.copy()
        hi[k] += step
        lo[k] -= step
        out[k] = (
            apply_score(kind, *hi).value - apply_score(kind, *lo).value
        ) / (2 * step)
    return out


def reference_partials(kind, tn, wfp, wfn, tp):
    """Each score's partials by the quotient rule, written out per score.

    The package reads its partials off score_array by complex step; this
    independent derivation is what they are checked against, raising the
    same DegenerateDenominatorError text at a zero denominator.
    """
    if kind is ScoreKind.NEG_ERROR_SUM:
        return np.array([0.0, -1.0, -1.0, 0.0])
    if kind is ScoreKind.ACCURACY:
        denom = tp + tn + wfp + wfn
        if denom == 0:
            raise DegenerateDenominatorError("tp + tn + wfp + wfn == 0")
        num = tp + tn
        err = wfp + wfn
        return np.array([err, -num, -num, err]) / denom**2
    if kind is ScoreKind.F1:
        denom = 2 * tp + wfp + wfn
        if denom == 0:
            raise DegenerateDenominatorError("2*tp + wfp + wfn == 0")
        return np.array([0.0, -2 * tp, -2 * tp, 2 * (wfp + wfn)]) / denom**2
    if kind is ScoreKind.TSS:
        pos = tp + wfn
        neg = tn + wfp
        if pos == 0:
            raise DegenerateDenominatorError("tp + wfn == 0")
        if neg == 0:
            raise DegenerateDenominatorError("tn + wfp == 0")
        return np.array([wfp / neg**2, -tn / neg**2, -tp / pos**2, wfn / pos**2])
    assert kind is ScoreKind.HSS
    num = 2.0 * (tp * tn - wfp * wfn)
    denom = (tp + wfn) * (wfn + tn) + (tp + wfp) * (wfp + tn)
    if denom == 0:
        raise DegenerateDenominatorError(
            "(tp + wfn)*(wfn + tn) + (tp + wfp)*(wfp + tn) == 0"
        )
    dnum = np.array([2 * tp, -2 * wfn, -2 * wfp, 2 * tn])
    ddenom = np.array(
        [
            (tp + wfn) + (tp + wfp),
            (wfp + tn) + (tp + wfp),
            (wfn + tn) + (tp + wfn),
            (wfn + tn) + (wfp + tn),
        ]
    )
    return (dnum * denom - num * ddenom) / denom**2


class TestValues:
    def test_accuracy_on_demo_counts(self):
        assert apply_score(ScoreKind.ACCURACY, 15, 4, 2, 5).value == pytest.approx(
            20 / 26
        )

    def test_tss_on_demo_counts(self):
        expected = 5 / 7 + 15 / 19 - 1
        assert apply_score(ScoreKind.TSS, 15, 4, 2, 5).value == pytest.approx(
            expected, abs=1e-15
        )

    def test_perfect_classifier_tss(self):
        assert apply_score(ScoreKind.TSS, 10, 0, 0, 10).value == 1.0

    def test_neg_error_sum(self):
        assert apply_score(ScoreKind.NEG_ERROR_SUM, 3, 1.5, 2.5, 9).value == -4.0

    def test_f1_and_hss_known_values(self):
        assert apply_score(ScoreKind.F1, 15, 4, 2, 5).value == pytest.approx(
            10 / 16, abs=1e-15
        )
        # HSS with the same counts, from its closed formula
        num = 2 * (5 * 15 - 4 * 2)
        den = (5 + 2) * (2 + 15) + (5 + 4) * (4 + 15)
        assert apply_score(ScoreKind.HSS, 15, 4, 2, 5).value == pytest.approx(
            num / den, abs=1e-15
        )

    def test_rejects_negative_entries(self):
        with pytest.raises(ValidationError):
            apply_score(ScoreKind.F1, -1, 0, 0, 1)

    def test_parse_names(self):
        assert ScoreKind.parse("tss") is ScoreKind.TSS
        with pytest.raises(ValidationError):
            ScoreKind.parse("auc")


class TestDegenerate:
    def test_zero_denominator_scores_zero_with_flag(self):
        res = apply_score(ScoreKind.TSS, 0, 0, 1, 1)  # tn + wfp == 0
        assert res.value == 0.0 and res.degenerate
        res = apply_score(ScoreKind.F1, 5, 0, 0, 0)
        assert res.value == 0.0 and res.degenerate

    def test_neg_error_sum_never_degenerate(self):
        assert not apply_score(ScoreKind.NEG_ERROR_SUM, 0, 0, 0, 0).degenerate

    def test_partials_raise_naming_denominator(self):
        with pytest.raises(DegenerateDenominatorError, match="tp \\+ wfn"):
            score_partials(ScoreKind.TSS, 1, 1, 0, 0)

    @pytest.mark.parametrize(
        "kind, entries, denominator",
        [
            (ScoreKind.ACCURACY, (0, 0, 0, 0), "tp + tn + wfp + wfn"),
            (ScoreKind.F1, (5, 0, 0, 0), "2*tp + wfp + wfn"),
            (ScoreKind.HSS, (0, 0, 0, 5), "(tp + wfn)*(wfn + tn)"),
        ],
        ids=["accuracy", "f1", "hss"],
    )
    def test_ratio_partials_raise_naming_denominator(self, kind, entries, denominator):
        with pytest.raises(DegenerateDenominatorError) as exc:
            score_partials(kind, *entries)
        assert str(exc.value).startswith(denominator)


class TestPartials:
    def test_linear_score_partials(self):
        np.testing.assert_array_equal(
            score_partials(ScoreKind.NEG_ERROR_SUM, 3, 1, 2, 9),
            [0.0, -1.0, -1.0, 0.0],
        )

    def test_tss_wfn_partial_at_perfect(self):
        # d/dwfn of tp/(tp+wfn) at (10,0,0,10) is -tp/(tp+wfn)^2 = -0.1
        partials = score_partials(ScoreKind.TSS, 10, 0, 0, 10)
        assert partials[2] == pytest.approx(-0.1, abs=1e-15)

    def test_f1_partials_match_finite_differences(self):
        analytic = score_partials(ScoreKind.F1, 15, 4, 2, 5)
        numeric = fd_partials(ScoreKind.F1, 15, 4, 2, 5)
        np.testing.assert_allclose(analytic, numeric, atol=1e-7)

    @pytest.mark.parametrize("kind", list(ScoreKind))
    def test_all_partials_match_finite_differences(self, kind, rng):
        for _ in range(40):
            m = rng.uniform(0.5, 20.0, size=4)
            analytic = score_partials(kind, *m)
            numeric = fd_partials(kind, *m)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("kind", list(ScoreKind))
    def test_partial_signs_match_monotonicity(self, kind, rng):
        # HSS is monotone in the required sense only where the classifier
        # is no worse than chance (tp*tn >= wfp*wfn); outside that region
        # raising wfp can raise the (deeply negative) score, so those cells
        # are excluded rather than asserted on.
        checked = 0
        while checked < 40:
            m = rng.uniform(0.5, 20.0, size=4)
            tn, wfp, wfn, tp = m
            if kind is ScoreKind.HSS and tp * tn < wfp * wfn:
                continue
            checked += 1
            d_tn, d_wfp, d_wfn, d_tp = score_partials(kind, *m)
            assert d_tn >= -1e-12 and d_tp >= -1e-12
            assert d_wfp <= 1e-12 and d_wfn <= 1e-12


class TestAgainstReference:
    @pytest.mark.parametrize("kind", list(ScoreKind))
    @pytest.mark.parametrize("scale", [1e-50, 1e-12, 1.0, 1e6, 1e12])
    def test_partials_match_the_quotient_rule(self, kind, scale, rng):
        # A quarter of the entries are zero, so every zero pattern occurs.
        checked = 0
        for _ in range(200):
            m = rng.uniform(0.0, 1.0, size=4) * scale
            m[rng.random(4) < 0.25] = 0.0
            try:
                ref = reference_partials(kind, *m)
            except DegenerateDenominatorError:
                continue
            got = score_partials(kind, *m)
            assert np.max(np.abs(got - ref)) <= 2e-15 * np.max(np.abs(ref))
            assert not np.any(np.signbit(got)[got == 0.0])
            checked += 1
        assert checked > 100

    @pytest.mark.parametrize("kind", list(ScoreKind))
    def test_every_zero_pattern_raises_as_the_reference(self, kind):
        # Each entry zero or not: TSS's tn + wfp == 0 and its two zero
        # denominators at once are among the sixteen patterns.
        for zeros in np.ndindex(2, 2, 2, 2):
            m = np.where(np.array(zeros) == 1, 0.0, [3.0, 1.5, 0.5, 2.0])
            try:
                ref = reference_partials(kind, *m)
            except DegenerateDenominatorError as exc:
                with pytest.raises(DegenerateDenominatorError) as got:
                    score_partials(kind, *m)
                assert str(got.value) == str(exc)
                continue
            got = score_partials(kind, *m)
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-15)
            assert not np.any(np.signbit(got)[got == 0.0])


class TestMonotonicity:
    @pytest.mark.parametrize("kind", list(ScoreKind))
    def test_unit_bumps(self, kind, rng):
        # 200 random positive matrices per score: the correct entries never
        # hurt, the error entries never help.  HSS cells below chance are
        # excluded (see the partial-sign test).
        checked = 0
        while checked < 200:
            m = rng.uniform(0.5, 20.0, size=4)
            if kind is ScoreKind.HSS and m[3] * m[0] < m[1] * m[2]:
                continue
            checked += 1
            base = apply_score(kind, *m).value
            up_tn = apply_score(kind, m[0] + 1, m[1], m[2], m[3]).value
            up_tp = apply_score(kind, m[0], m[1], m[2], m[3] + 1).value
            up_fp = apply_score(kind, m[0], m[1] + 1, m[2], m[3]).value
            up_fn = apply_score(kind, m[0], m[1], m[2] + 1, m[3]).value
            assert up_tn >= base - 1e-12
            assert up_tp >= base - 1e-12
            assert up_fp <= base + 1e-12
            assert up_fn <= base + 1e-12


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.1, max_value=50.0), min_size=8, max_size=8))
def test_neg_error_sum_is_linear(vals):
    m1 = vals[:4]
    m2 = vals[4:]
    lam = 0.3
    mix = [lam * a + (1 - lam) * b for a, b in zip(m1, m2)]
    lhs = apply_score(ScoreKind.NEG_ERROR_SUM, *mix).value
    rhs = lam * apply_score(ScoreKind.NEG_ERROR_SUM, *m1).value + (
        1 - lam
    ) * apply_score(ScoreKind.NEG_ERROR_SUM, *m2).value
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_score_array_matches_scalar(rng):
    # apply_score runs the formulas of score_array on Python floats: the
    # same bits, and +0.0 wherever a denominator is zero.
    m = rng.uniform(0.0, 10.0, size=(50, 4))
    m[:5] = 0.0  # all-zero rows
    m[5:10, 2:] = 0.0  # negatives only: tp = wfn = 0
    m[10:15, :2] = 0.0  # positives only: tn = wfp = 0
    for kind in ScoreKind:
        vals, bad = score_array(kind, m[:, 0], m[:, 1], m[:, 2], m[:, 3])
        assert not np.signbit(vals[bad]).any()
        for k in range(50):
            ref = apply_score(kind, *m[k])
            assert np.float64(ref.value).tobytes() == vals[k].tobytes()
            assert bool(bad[k]) == ref.degenerate
            if ref.degenerate:
                assert not np.signbit(ref.value)
        assert bad[:5].all() == (kind is not ScoreKind.NEG_ERROR_SUM)
        assert bad[5:15].all() == (kind is ScoreKind.TSS)
