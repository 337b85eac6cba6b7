import numpy as np
import pytest

from wsol.confusion import hard_confusion, weighted_hard_confusion
from wsol.demo import (
    DEFAULT_DEMO_WEIGHTS,
    adjacent_error_series,
    compare_series,
    isolated_error_series,
)
from wsol.expected import expected_confusion
from wsol.oracle import exact_expected_confusion
from wsol.scores import ScoreKind
from wsol.threshold import ThresholdDistribution


def test_both_series_share_the_stated_matrix():
    for series in (adjacent_error_series(), isolated_error_series()):
        cm = hard_confusion(series, 0.5)
        assert (cm.tn, cm.fp, cm.fn, cm.tp) == (15, 4, 2, 5)
        assert series.n == 26


def test_positive_and_alarm_counts_forced_by_arithmetic():
    for series in (adjacent_error_series(), isolated_error_series()):
        assert int(series.labels.sum()) == 7  # tp + fn
        assert int(np.sum(series.predictions > 0.5)) == 9  # tp + fp


def test_same_pair_multiset():
    a = sorted(zip(adjacent_error_series().predictions, adjacent_error_series().labels))
    b = sorted(zip(isolated_error_series().predictions, isolated_error_series().labels))
    assert a == b


def test_classical_matrices_agree_at_every_threshold():
    a, b = adjacent_error_series(), isolated_error_series()
    for tau in np.arange(0.05, 1.0, 0.05):
        assert hard_confusion(a, float(tau)) == hard_confusion(b, float(tau))


def test_classical_scores_identical_weighted_scores_strictly_larger():
    comp = compare_series()
    assert comp["confusion"] == {"tn": 15, "fp": 4, "fn": 2, "tp": 5}
    weighted, expected = comp["weighted_scores"], comp["expected_weighted_scores"]
    for kind in ScoreKind:
        name = kind.value
        adj = weighted["adjacent_errors"][name]
        iso = weighted["isolated_errors"][name]
        assert iso == pytest.approx(comp["classical_scores"][name], abs=1e-12)
        assert adj > iso
        assert expected["adjacent_errors"][name] > expected["isolated_errors"][name]


def test_expected_correct_entries_identical_weighted_errors_smaller():
    dist = ThresholdDistribution.uniform()
    spec = DEFAULT_DEMO_WEIGHTS
    adj = expected_confusion(adjacent_error_series(), dist, spec)
    iso = expected_confusion(isolated_error_series(), dist, spec)
    assert adj.e_tp == pytest.approx(iso.e_tp, abs=1e-12)
    assert adj.e_tn == pytest.approx(iso.e_tn, abs=1e-12)
    assert adj.e_wfp < iso.e_wfp
    assert adj.e_wfn < iso.e_wfn
    # Cross-checked against the piecewise oracle.
    for series, closed in ((adjacent_error_series(), adj), (isolated_error_series(), iso)):
        exact = exact_expected_confusion(series, dist, spec)
        for x, y in zip(closed.entries(), exact.entries()):
            assert x == pytest.approx(y, abs=1e-10)


def test_isolated_series_weighted_errors_equal_classical():
    # Every false alarm trails all events and every miss is unheralded, so
    # the value weights have nothing to reward in the isolated arrangement.
    wc = weighted_hard_confusion(isolated_error_series(), 0.5, DEFAULT_DEMO_WEIGHTS)
    assert wc.wfn == pytest.approx(2.0, abs=1e-12)
    assert wc.wfp == pytest.approx(4.0, abs=1e-12)
