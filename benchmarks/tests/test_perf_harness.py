"""Tests of the benchmark's own code: percentiles, self time, inputs, wrappers.

Run from the repository root with ``python -m pytest benchmarks/tests``.
"""

import numpy as np
import pytest

import measure
import tracing
import workloads

import wsol
from wsol import expected, loss, threshold


def test_percentile_refuses_p90_below_100_samples():
    with pytest.raises(ValueError, match="p90"):
        measure.percentile(list(range(99)), 90)
    assert measure.percentile(list(range(100)), 90) == pytest.approx(89.1)


def test_percentile_refuses_p50_below_20_samples():
    with pytest.raises(ValueError):
        measure.percentile([1.0] * 19, 50)
    assert measure.percentile(list(range(21)), 50) == 10


def _span(name, start, end, parent, op=0):
    return [name, float(start), float(end), parent, op]


def test_self_time_nested_and_reentrant():
    # One op: cdf -> beta, then sample -> beta and sample -> cdf -> beta,
    # and a function that re-enters itself.
    spans = [
        _span("op", 0, 100, -1),  # 0
        _span("threshold.cdf", 0, 20, 0),  # 1
        _span("threshold.regularized_incomplete_beta", 5, 15, 1),
        _span("threshold.sample", 20, 60, 0),  # 3
        _span("threshold.regularized_incomplete_beta", 22, 30, 3),
        _span("threshold.cdf", 30, 50, 3),  # 5
        _span("threshold.regularized_incomplete_beta", 31, 49, 5),
        _span("loss.loss_value", 60, 90, 0),  # 7
        _span("loss.loss_value", 65, 80, 7),  # 8: re-entrant
        _span("loss.loss_value", 66, 70, 8),
    ]
    self_s, calls = tracing.self_times(spans)
    assert self_s["threshold.regularized_incomplete_beta"] == 10 + 8 + 18
    assert self_s["threshold.cdf"] == (20 - 10) + (20 - 18)
    assert self_s["threshold.sample"] == 40 - 8 - 20
    assert self_s["loss.loss_value"] == (30 - 15) + (15 - 4) + 4
    assert self_s["op"] == 100 - 20 - 40 - 30
    assert calls["threshold.regularized_incomplete_beta"] == 3
    assert calls["loss.loss_value"] == 3
    # Self times partition the op: nothing is counted twice or lost.
    assert sum(self_s.values()) == 100


def test_traced_beta_calls_under_cdf_and_sample():
    dist = wsol.ThresholdDistribution.beta_prior(2, 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.op(1):
            dist.cdf(np.array([0.2, 0.7]))
            dist.sample(np.random.default_rng(0), 50)
    finally:
        tracer.uninstall()
    parents = {
        tracer.spans[s[3]][0]
        for s in tracer.spans
        if s[0] == "threshold.regularized_incomplete_beta"
    }
    assert parents == {"threshold.cdf", "threshold.sample"}
    assert tracer.draws == 50
    assert all(s[4] == 1 for s in tracer.spans)
    self_s, _ = tracing.self_times(tracer.spans)
    op_span = tracer.spans[0]
    assert sum(self_s.values()) == pytest.approx(op_span[2] - op_span[1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(name):
    cls = workloads.WORKLOADS[name]

    def arrays(seed, k):
        wl = cls(seed)
        args = wl.inputs(k)
        args = args if isinstance(args, tuple) else (args,)
        return [np.asarray(a) for a in args if isinstance(a, np.ndarray)]

    first = arrays(3, 5)
    assert first
    for a, b in zip(first, arrays(3, 5)):
        np.testing.assert_array_equal(a, b)
    other_seed = arrays(4, 5)
    assert any(
        a.shape != b.shape or not np.array_equal(a, b) for a, b in zip(first, other_seed)
    )


def test_oracle_mix_ops_differ_and_cycle_all_pairs():
    wl = workloads.OracleMix(1)
    assert len(wl.pairs) == 9
    assert not np.array_equal(wl.inputs(1)[0], wl.inputs(2)[0])
    seen = {(type(wl.inputs(k)[2]), wl.inputs(k)[3].kind) for k in range(9)}
    assert len(seen) == 9


def test_wrappers_fully_removed_after_traced_run():
    originals = {
        "cdf": vars(wsol.ThresholdDistribution)["cdf"],
        "init": vars(wsol.LabeledSeries)["__init__"],
        "rib": threshold.regularized_incomplete_beta,
        "expected_confusion": expected.expected_confusion,
        "loss_expected_confusion": loss.expected_confusion,
        "package_loss_value": wsol.loss_value,
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert loss.expected_confusion is not originals["loss_expected_confusion"]
        assert wsol.loss_value is not originals["package_loss_value"]
        assert tracing.leftover_wrappers()
        series = wsol.LabeledSeries(np.array([0.2, 0.6, 0.9]), np.array([0, 1, 1]))
        spec = wsol.LossSpec(
            wsol.ScoreKind.TSS,
            wsol.ValueMaxWeight((0.6, 0.3)),
            wsol.ThresholdDistribution.beta_prior(2, 5),
        )
        with tracer.op(0):
            wsol.loss_gradient(series, spec)
    finally:
        tracer.uninstall()
    assert tracing.leftover_wrappers() == []
    assert vars(wsol.ThresholdDistribution)["cdf"] is originals["cdf"]
    assert vars(wsol.LabeledSeries)["__init__"] is originals["init"]
    assert threshold.regularized_incomplete_beta is originals["rib"]
    assert expected.expected_confusion is originals["expected_confusion"]
    assert loss.expected_confusion is originals["loss_expected_confusion"]
    assert wsol.loss_value is originals["package_loss_value"]
    names = {s[0] for s in tracer.spans}
    assert {"loss.loss_gradient", "expected.expected_confusion", "threshold.cdf"} <= names


def test_oracle_mix_mc_bound_grows_with_comparisons():
    wl = workloads.OracleMix(1)
    wl.pulls = [(0.0, 1.0)] * 4
    few = wl.mc_bound()
    wl.pulls = [(0.0, 1.0)] * 1200
    many = wl.mc_bound()
    assert 4.0 < few < many < 6.0


def test_traced_run_times_the_same_ops_with_and_without_spans():
    import run

    wl = workloads.OracleMix(1)
    tracer = tracing.Tracer()
    plain, traced = run.run_traced(wl, tracer)
    assert plain.attempted == traced.attempted == wl.traced_ops
    assert plain.failed == traced.failed == 0
    assert tracing.leftover_wrappers() == []
    # Only the traced copy of each op records spans, one root span per op.
    assert sum(s[0] == tracing.OP_SPAN for s in tracer.spans) == wl.traced_ops
    assert {s[4] for s in tracer.spans} == set(range(1, wl.traced_ops + 1))
