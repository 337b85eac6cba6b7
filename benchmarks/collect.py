"""Run the benchmark over ten seeds and summarise the spread of each metric.

Usage, from the repository root:

    python3 benchmarks/collect.py --out benchmarks/BENCH_new.json

For every workload in BENCHMARK.json it makes RUNS untraced runs, seeds
1, 2, ..., of BENCHMARK.json's run_seconds each, and reports every
end-to-end metric's median, quartiles and spread (quartile distance over
median) against the metric's bound.  TRACE_RUNS traced runs with seed 1
follow; their ``*.calls_per_op`` must repeat exactly.  With ``--out`` the
summary and the first traced run's per-layer table are written as one
JSON trajectory point.  Exits 1 when a run fails its checks, a spread is
wider than its bound or a count differs.

The machine's speed drifts between sets of runs, so a later change is
compared with its parent by alternating runs of the two, not against a
stored trajectory point.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import measure  # noqa: E402

RUN_TIMEOUT_S = 600
RUNS = 10
TRACE_RUNS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(result line, env line) of one benchmark run; raises if it exits non-zero."""
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} trace {trace} exited {done.returncode}:\n{done.stderr}"
        )
    lines = done.stdout.strip().splitlines()
    env = next(json.loads(line[5:]) for line in lines if line.startswith("env: "))
    return json.loads(lines[-1]), env


def summarise(values: list[float], bound: float) -> dict:
    q1, median, q3 = measure.quartiles(values)
    spread = (q3 - q1) / median
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": spread,
        "bound": bound,
        "within_bound": spread <= bound,
        "values": values,
    }


def collect_workload(name: str, spec: dict, seconds: int) -> dict:
    results = []
    env = None
    for seed in range(1, RUNS + 1):
        started = time.perf_counter()
        result, env = run_once(name, seed, seconds, 0)
        results.append(result)
        print(f"  {name} seed {seed}: {time.perf_counter() - started:.1f} s wall", flush=True)
    entry = {"env": env, "runs": RUNS, "end_to_end": {}}
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        entry["end_to_end"][metric["name"]] = {
            "unit": metric["unit"],
            **summarise(values, metric["bound"]),
        }
    entry["failed"] = sum(r["failed"] for r in results)
    entry["correct"] = all(r["correct"] for r in results)
    traced = [run_once(name, 1, seconds, 1)[0] for _ in range(TRACE_RUNS)]
    counts = [
        {k: v["value"] for k, v in t["metrics"].items() if k.endswith("calls_per_op")}
        for t in traced
    ]
    entry["calls_repeat"] = all(c == counts[0] for c in counts)
    entry["per_layer_seed1"] = {k: v["value"] for k, v in traced[0]["metrics"].items()}
    entry["correct"] = entry["correct"] and all(t["correct"] for t in traced)
    return entry


def print_table(name: str, entry: dict) -> None:
    print(f"{name}: correct={entry['correct']} failed={entry['failed']}")
    for metric, s in entry["end_to_end"].items():
        flag = "ok" if s["within_bound"] else "WIDE"
        print(
            f"  {metric:12s} median {s['median']:12.6g} {s['unit']:5s} "
            f"q1 {s['q1']:12.6g} q3 {s['q3']:12.6g} spread {s['spread']:.4f} "
            f"(bound {s['bound']:.4f}) {flag}"
        )
    print(f"  traced calls_per_op repeat exactly: {entry['calls_repeat']}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    point = {"run_seconds": seconds, "workloads": {}}
    ok = True
    for workload in spec["workloads"]:
        name = workload["name"]
        entry = collect_workload(name, spec, seconds)
        point["workloads"][name] = entry
        print_table(name, entry)
        ok = ok and entry["correct"] and entry["calls_repeat"]
        ok = ok and all(s["within_bound"] for s in entry["end_to_end"].values())
    if args.out:
        args.out.write_text(json.dumps(point, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
