"""Closed-loop benchmark of wsol: one workload, one process, one caller.

Usage, from the repository root:

    python3 benchmarks/run.py --workload oracle_mix --seed 1 --seconds 20 --trace 0

The run imports wsol from ``src/`` of this checkout, builds the workload's
inputs from ``--seed``, runs one warm-up op and then ops back to back for
``--seconds`` (and at least 100 ops), checks every output, and prints a
summary and, as the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the same run is followed by a fixed number of ops from a reset workload,
each run once without and once with span recorders installed around
wsol's public functions, and the metrics are the per-layer ones.  Results
and spans are also written to ``benchmarks/out/``.  The exit code is 0 when every check passes, 1 when
a check fails and 2 when the benchmark cannot run at all.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here, before numpy and wsol load

import os

# One caller on one core: numpy must not start BLAS or OpenMP worker threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import copy
import json
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE_DIR = ROOT / "src" / "wsol"
OUT_DIR = HERE / "out"

MIN_OPS = 100  # so that at least ten latency samples lie beyond p90
# Set-ups repeated after the first, spread evenly over the timed phase: a
# shared machine's speed can change in blocks of seconds, so samples taken
# together would all land in the same block.
SETUP_REPEATS = 8
MAX_REPORTED_FAILURES = 5


@dataclass
class Phase:
    """Latencies (seconds) of the ops of one timed phase, with their outcome."""

    latencies: list = field(default_factory=list)
    failed: int = 0
    problems: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / sum(self.latencies)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _import_wsol() -> None:
    """Import wsol from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import wsol

    location = Path(wsol.__file__).resolve().parent
    if location != PACKAGE_DIR:
        raise ImportError(f"wsol was imported from {location}, not {PACKAGE_DIR}")


def set_up(cls, seed: int):
    """A new workload and its warm-up op (op 0); returns (workload, warm-up phase)."""
    workload = cls(seed)
    warmup = Phase()
    _run_op(workload, 0, warmup)
    return workload, warmup


def time_set_up(cls, seed: int) -> float:
    """Seconds to set up a throwaway workload and run its warm-up op.

    The caller passes a seed of the set-up's own, so a cache keyed on input
    values cannot carry work over from an earlier set-up.  Import time is
    not included: modules load once per process.
    """
    start = time.perf_counter()
    _, warmup = set_up(cls, seed)
    elapsed = time.perf_counter() - start
    if warmup.failed:
        raise RuntimeError(f"repeated set-up failed: {warmup.problems[0]}")
    return elapsed


def _run_op(workload, k: int, phase: Phase) -> None:
    _call(workload, k, workload.inputs(k), phase)


def _call(workload, k: int, args, phase: Phase, tracer=None) -> None:
    """Op k on the given inputs: timed, then checked untimed."""
    problem = None
    start = time.perf_counter()
    try:
        if tracer is None:
            out = workload.op(args)
        else:
            with tracer.op(k):
                out = workload.op(args)
    except Exception:
        problem = traceback.format_exc()
    phase.latencies.append(time.perf_counter() - start)
    if problem is None:
        try:
            problem = workload.check(args, out)
        except Exception:
            problem = traceback.format_exc()
    if problem is not None:
        phase.failed += 1
        phase.problems.append(f"op {k}: {problem}")


def run_timed(workload, seconds: float) -> tuple[Phase, list[float]]:
    """Ops back to back until `seconds` have passed and MIN_OPS have run.

    Between two ops, every seconds / SETUP_REPEATS, one more set-up is
    timed; returns the phase and those set-up times.  The phase ends on a
    whole cycle of the workload's op mix, so every kind of op carries the
    same weight in the percentiles of every run.
    """
    phase = Phase()
    repeats = []
    start = time.perf_counter()
    k = 1  # op 0 is the warm-up
    while (
        phase.attempted < MIN_OPS
        or time.perf_counter() - start < seconds
        or phase.attempted % workload.cycle
    ):
        due = len(repeats) * seconds / SETUP_REPEATS
        if len(repeats) < SETUP_REPEATS and time.perf_counter() - start >= due:
            seed = workload.seed + (len(repeats) + 1) * 1_000_003
            repeats.append(time_set_up(type(workload), seed))
        _run_op(workload, k, phase)
        k += 1
    return phase, repeats


def run_traced(workload, tracer) -> tuple[Phase, Phase]:
    """Ops 1 .. workload.traced_ops from a reset workload, each run twice.

    Op k runs on its inputs with spans recorded, and on a deep copy of
    them without the tracer, the two in turn first.  Both timings of an op
    see the machine in the same state, so the ratio of the two phases is
    the tracer's overhead.  A fixed op count from a fixed state makes every
    calls_per_op repeat exactly for a given seed.  Returns (plain, traced).
    """
    plain, traced = Phase(), Phase()
    workload.reset()
    for k in range(1, workload.traced_ops + 1):
        args = workload.inputs(k)
        twin = copy.deepcopy(args)
        if k % 2:
            _call(workload, k, twin, plain)
        tracer.install()
        try:
            _call(workload, k, args, traced, tracer)
        finally:
            tracer.uninstall()
        if not k % 2:
            _call(workload, k, twin, plain)
    return plain, traced


def end_to_end_metrics(phase: Phase, setup_samples, rss_mb: float) -> dict:
    import measure

    ms = [t * 1000.0 for t in phase.latencies]
    return {
        "ops_per_s": (phase.ops_per_s(), "1/s"),
        "op_ms_p50": (measure.percentile(ms, 50), "ms"),
        "op_ms_p90": (measure.percentile(ms, 90), "ms"),
        "setup_s": (sorted(setup_samples)[len(setup_samples) // 2], "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer_metrics(tracer, traced: Phase, plain: Phase) -> dict:
    """Per-layer metrics of the traced ops; `plain` is the same ops untraced."""
    import tracing

    ops = traced.attempted
    self_s, calls = tracing.self_times(tracer.spans)
    metrics = {}
    for name in tracing.TARGETS:
        metrics[f"{name}.calls_per_op"] = (calls.get(name, 0) / ops, "count")
        metrics[f"{name}.self_ms_per_op"] = (self_s.get(name, 0.0) * 1000.0 / ops, "ms")
    metrics["threshold.sample.draws_per_op"] = (tracer.draws / ops, "count")
    metrics["trace.unattributed_ms_per_op"] = (
        self_s.get(tracing.OP_SPAN, 0.0) * 1000.0 / ops,
        "ms",
    )
    metrics["trace.overhead_ratio"] = (traced.ops_per_s() / plain.ops_per_s(), "ratio")
    return metrics


def _summary(workload: str, seed: int, metrics: dict, attempted: int, failed: int) -> str:
    parts = [f"{name}={value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    parts.append(f"failed_ratio={failed / attempted:.6g} ({failed}/{attempted} ops)")
    return f"{workload} seed={seed}: " + "  ".join(parts)


def _layer_table(metrics: dict) -> str:
    """Per-layer self time and calls per op, largest self time first."""
    rows = []
    for name in metrics:
        if name.endswith(".self_ms_per_op"):
            base = name[: -len(".self_ms_per_op")]
            rows.append((metrics[name][0], metrics[f"{base}.calls_per_op"][0], base))
    rows.append((metrics["trace.unattributed_ms_per_op"][0], 0.0, "(unattributed)"))
    total = sum(r[0] for r in rows)
    lines = [f"per op: {total:.3f} ms traced, self time by span:"]
    for self_ms, calls, base in sorted(rows, reverse=True):
        if self_ms > 0:
            lines.append(
                f"  {base:42s} {self_ms:10.3f} ms {100 * self_ms / total:5.1f}%"
                f"  {calls:10.2f} calls"
            )
    return "\n".join(lines)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        _import_wsol()
        import measure
        import tracing
        import workloads
    except ImportError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(
            f"unknown workload {args.workload!r}; choose from "
            f"{', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    cls = workloads.WORKLOADS[args.workload]
    import_s = time.perf_counter() - _T0
    workload, warmup = set_up(cls, args.seed)
    setup_cold_s = time.perf_counter() - _T0
    if warmup.failed:
        print(f"warm-up op failed: {warmup.problems[0]}", file=sys.stderr)
        return 1
    try:
        phase, repeats = run_timed(workload, args.seconds)
    except RuntimeError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    rss_mb = measure.peak_rss_mb()
    # The imports happen once per process; every later set-up sample adds
    # their time to its own.
    setup_samples = [setup_cold_s] + [import_s + r for r in repeats]
    e2e = end_to_end_metrics(phase, setup_samples, rss_mb)
    attempted, failed = phase.attempted, phase.failed
    op_problems = list(phase.problems)
    run_problems = []
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    extra = {
        "import_s": import_s,
        "setup_cold_s": setup_cold_s,
        "setup_samples_s": setup_samples,
        "timed_ops": phase.attempted,
    }
    metrics = e2e

    if args.trace:
        tracer = tracing.Tracer()
        plain, traced = run_traced(workload, tracer)
        leftovers = tracing.leftover_wrappers()
        if leftovers:
            run_problems.append(f"span wrappers left installed: {leftovers}")
        attempted += plain.attempted + traced.attempted
        failed += plain.failed + traced.failed
        op_problems += plain.problems + traced.problems
        metrics = per_layer_metrics(tracer, traced, plain)
        tracer.write_jsonl(OUT_DIR / f"{stem}.spans.jsonl")
        extra["traced_ops"] = traced.attempted
        extra["end_to_end"] = {k: v for k, (v, _) in e2e.items()}

    try:
        run_problems += workload.finish()
    except Exception:
        run_problems.append(traceback.format_exc())
    correct = failed == 0 and not run_problems
    for problem in (op_problems + run_problems)[:MAX_REPORTED_FAILURES]:
        print(f"check failed: {problem}", file=sys.stderr)

    env = measure.env_info(ROOT, PACKAGE_DIR)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "run_checks": workload.report,
        "run_checks_failed": run_problems,
        **extra,
    }
    (OUT_DIR / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print("env: " + json.dumps(env))
    print(_summary(args.workload, args.seed, e2e, attempted, failed))
    if args.trace:
        print(_layer_table(metrics))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
