"""Smoke runs of the experiment scripts at tiny sizes, each in its own process."""

import importlib.util
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:nan|inf)\b", re.I)


@pytest.mark.parametrize(
    "script, args",
    [
        ("paired_training.py", ["--n", "120", "--epochs", "5", "--seeds", "1"]),
        ("prior_steering.py", ["--n", "120", "--epochs", "5"]),
    ],
)
def test_script_runs_and_prints_finite_numbers(script, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    numbers = [float(m) for m in _NUMBER.findall(done.stdout)]
    assert numbers and all(math.isfinite(v) for v in numbers)


def test_fingerprint_repeats():
    # Two runs of the corpus hash every output alike: one sha256 per named
    # output, the names unique, and nothing on standard error.  The script
    # finds its own checkout's package, with no PYTHONPATH.
    argv = [sys.executable, str(ROOT / "scripts" / "fingerprint.py"), "--n", "200"]
    runs = [
        subprocess.run(argv, capture_output=True, text=True, timeout=60)
        for _ in range(2)
    ]
    for done in runs:
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
    assert runs[0].stdout == runs[1].stdout
    lines = [line.split("  ") for line in runs[0].stdout.splitlines()]
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for digest, _ in lines)
    names = [name for _, name in lines]
    assert len(names) == len(set(names)) > 50
    assert "verify/verify.json" in names


def _load_pair():
    spec = importlib.util.spec_from_file_location("pair", ROOT / "scripts" / "pair.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pair_summary_counts_wins_by_direction():
    # Ten pairs: the change is faster on nine and ties on one, so it wins
    # 9/10 on the lower-is-better latency, which meets the 9/10 rule; on
    # throughput it wins 8, ties 1 and loses 1, one short of the rule.
    pair = _load_pair()
    end_to_end = [
        {"name": "ops_per_s", "better": "higher", "bound": 0.24},
        {"name": "op_ms_p50", "better": "lower", "bound": 0.24},
    ]
    base_ms = [10.0, 11.0, 12.0, 10.5, 11.5, 10.2, 11.2, 10.8, 11.8, 12.2]
    change_ms = [ms - 2.0 for ms in base_ms[:9]] + [base_ms[9]]
    base_ops = [100.0 + k for k in range(10)]
    change_ops = [v + 5.0 for v in base_ops[:8]] + [base_ops[8], base_ops[9] - 1.0]
    base = [{"ops_per_s": o, "op_ms_p50": m} for o, m in zip(base_ops, base_ms)]
    change = [{"ops_per_s": o, "op_ms_p50": m} for o, m in zip(change_ops, change_ms)]
    got = pair.summarize(base, change, end_to_end)

    ms = got["op_ms_p50"]
    assert (ms["change_wins"], ms["base_wins"], ms["pairs"]) == (9, 0, 10)
    assert ms["base"]["runs"] == base_ms and ms["base"]["median"] == 11.1
    assert ms["base"]["q1"] < ms["base"]["median"] < ms["base"]["q3"]
    assert ms["claim"] and ms["within_bound"] and ms["median_worse_by"] < 0

    ops = got["ops_per_s"]
    assert (ops["change_wins"], ops["base_wins"]) == (8, 1)
    assert not ops["claim"] and ops["within_bound"]


def test_pair_summary_needs_a_gap_beyond_the_base_spread():
    # Ten wins of ten, but by less than the base's quartile spread: no
    # claim.  Ten losses of 30 % break the 24 % bound.
    pair = _load_pair()
    end_to_end = [{"name": "setup_s", "better": "lower", "bound": 0.24}]
    base = [{"setup_s": 1.0 + 0.1 * k} for k in range(10)]
    slightly = [{"setup_s": run["setup_s"] - 0.01} for run in base]
    got = pair.summarize(base, slightly, end_to_end)["setup_s"]
    assert got["change_wins"] == 10 and not got["claim"]
    slower = [{"setup_s": run["setup_s"] * 1.3} for run in base]
    got = pair.summarize(base, slower, end_to_end)["setup_s"]
    assert got["base_wins"] == 10 and not got["within_bound"]
    assert abs(got["median_worse_by"] - 0.3) < 1e-12


def test_pair_fingerprint_diff_names_moved_and_one_sided_outputs():
    pair = _load_pair()
    base = "aa  eval/report.json\nbb  loss/stdout\ncc  train/history.csv\n"
    change = "aa  eval/report.json\nbd  loss/stdout\ndd  verify/verify.json\n"
    assert pair.fingerprint_diff(base, change) == [
        "loss/stdout",
        "train/history.csv",
        "verify/verify.json",
    ]
    assert pair.fingerprint_diff(base, base) == []
