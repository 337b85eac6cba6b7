"""Smoke runs of the experiment scripts at tiny sizes, each in its own process."""

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
