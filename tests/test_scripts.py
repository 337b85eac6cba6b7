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
