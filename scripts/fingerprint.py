#!/usr/bin/env python3
"""Fingerprint what the wsol command line writes on a fixed corpus.

Usage, from any directory:

    python3 scripts/fingerprint.py [--n 20000]

The script imports wsol from ``src/`` of its own checkout and runs, in one
process and in a temporary directory, on a seeded series of ``--n`` samples:

* ``wsol eval`` for each legal (weight, prior) pair at two sweep steps, and
  once at the default step;
* ``wsol loss --gradient`` for each score under each weight, and a combined
  loss;
* a 30-epoch ``wsol train``, full batch and chunked, and one at the default
  epochs and learning rate;
* ``wsol verify --out``, with the seconds of each check stripped from its
  table and its file;
* ``wsol demo-figure1`` at its default weights and threshold, and at others.

It prints one ``sha256  name`` line per output: a command's exit code,
standard output and standard error, and each file it writes.  Two trees
that print the same lines write the same bytes on this corpus, so a diff of
their listings names every output a change moved.  BLAS runs on one thread,
since a threaded sum can round differently from run to run.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from wsol import cli  # noqa: E402

SEED = 2024
PRIORS = {
    "uniform": {"kind": "uniform"},
    "beta22": {"kind": "beta", "alpha": 2.0, "beta": 2.0},
}
WEIGHTS = {
    "unit": {"variant": "unit"},
    "cost": {"variant": "cost", "c01": 0.7, "c10": 2.5},
    "cross_entropy": {"variant": "cross_entropy", "omega0": 0.8, "omega1": 1.7},
    "value_prod": {"variant": "value_prod", "omega": [0.3, 0.25, 0.2, 0.1]},
    "value_max": {"variant": "value_max", "omega": [0.6, 0.6, 0.3, 0.1]},
}
SCORES = ("accuracy", "f1", "tss", "hss", "neg_error_sum")
SWEEP_STEPS = ("0.01", "0.003")
EPOCHS = "30"


def legal_pairs():
    """(weight, prior) names with a closed form: cross-entropy needs the
    uniform prior on [0, 1]."""
    for weight in WEIGHTS:
        for prior in PRIORS:
            if weight != "cross_entropy" or prior == "uniform":
                yield weight, prior


def write_inputs(n: int) -> None:
    """The series and the training set, in the working directory.

    Predictions lie on a grid of 1e-4, so that at large n some tie and the
    value-weight gradients have kinks; bursts of events give the windows
    something to reward.
    """
    rng = np.random.default_rng(SEED)
    labels = (rng.random(n) < 0.2).astype(int)
    labels[:2] = (0, 1)
    labels |= np.roll(labels, 1) & (rng.random(n) < 0.5)
    score = 0.35 * labels + 0.45 * np.roll(labels, -1) + rng.normal(0.3, 0.2, n)
    predictions = np.round(np.clip(score, 0.01, 0.99), 4)
    rows = "".join(
        f"{y},{p!r}\n" for y, p in zip(labels.tolist(), predictions.tolist())
    )
    Path("series.csv").write_text("label,prediction\n" + rows)
    features = np.column_stack(
        [np.roll(labels, -1) + rng.normal(0, 0.7, n) for _ in range(3)]
    )
    rows = "".join(
        ",".join(repr(v) for v in x) + f",{y}\n"
        for x, y in zip(features.tolist(), labels.tolist())
    )
    Path("dataset.csv").write_text("f1,f2,f3,label\n" + rows)


def loss_documents():
    """(name, loss document): each score under each weight, then a combined
    loss over both priors."""
    for weight, spec in WEIGHTS.items():
        for score in SCORES:
            doc = {"score": score, "weights": spec, "distribution": PRIORS["uniform"]}
            yield f"{score}_{weight}", doc
    parts = [
        ("tss", "value_max", "beta22", 0.5),
        ("hss", "value_prod", "uniform", 0.3),
        ("f1", "cost", "beta22", 0.2),
    ]
    components = [
        {"score": s, "weights": WEIGHTS[w], "distribution": PRIORS[d], "beta": b}
        for s, w, d, b in parts
    ]
    yield "combined", {"components": components}


def run(argv: list[str]) -> bytes:
    """Exit code, standard output and standard error of ``wsol argv``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return f"exit {code}\n{out.getvalue()}\x00{err.getvalue()}".encode()


def without_seconds(text: str) -> bytes:
    checks = json.loads(text)
    for check in checks:
        del check["seconds"]
    return json.dumps(checks, indent=2).encode()


def corpus(n: int):
    """(name, bytes) of every output, in a fixed order."""
    write_inputs(n)
    for weight, prior in legal_pairs():
        config = {"distribution": PRIORS[prior], "weights": WEIGHTS[weight]}
        Path("config.json").write_text(json.dumps(dict(config, score="tss")))
        for step in SWEEP_STEPS:
            name = f"eval_{weight}_{prior}_{step}"
            argv = ["eval", "--data", "series.csv", "--config", "config.json"]
            yield name, run([*argv, "--out", "report.json", "--sweep-step", step])
            yield f"{name}/report.json", Path("report.json").read_bytes()
    # The last pair's config again, with eval's default sweep step.
    yield "eval_default_step", run([*argv, "--out", "report.json"])
    yield "eval_default_step/report.json", Path("report.json").read_bytes()
    for name, doc in loss_documents():
        Path("loss.json").write_text(json.dumps(doc))
        argv = ["loss", "--data", "series.csv", "--loss", "loss.json", "--gradient"]
        yield f"loss_{name}", run(argv)
    loss = {"weights": WEIGHTS["value_max"], "distribution": PRIORS["uniform"]}
    Path("loss.json").write_text(json.dumps(dict(loss, score="tss")))
    runs = (
        ("train_full", ["--epochs", EPOCHS]),
        ("train_chunked", ["--epochs", EPOCHS, "--chunk", "64"]),
        ("train_default_epochs_lr", []),
    )
    for name, extra in runs:
        argv = ["train", "--data", "dataset.csv", "--loss", "loss.json"]
        argv += ["--seed", "7", "--out-dir", name, *extra]
        yield name, run(argv)
        for output in ("history.csv", "checkpoint.json", "evaluation.json"):
            yield f"{name}/{output}", Path(name, output).read_bytes()
    console = run(["verify", "--seed", "11", "--out", "verify.json"])
    yield "verify", re.sub(rb" *\d+\.\d\ds  ", b"  ", console)
    yield "verify/verify.json", without_seconds(Path("verify.json").read_text())
    for name, extra in (
        ("demo_default", []),
        ("demo_omega_tau", ["--omega", "0.5,0.2", "--tau", "0.4"]),
    ):
        yield name, run(["demo-figure1", "--out-dir", name, *extra])
        for output in (
            "series_adjacent_errors.csv",
            "series_isolated_errors.csv",
            "comparison.json",
        ):
            yield f"{name}/{output}", Path(name, output).read_bytes()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, default=20_000, help="series length, >= 2")
    args = parser.parse_args()
    if args.n < 2:
        parser.error("--n must be at least 2")
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name, data in corpus(args.n):
                print(f"{hashlib.sha256(data).hexdigest()}  {name}")
        finally:
            os.chdir(home)


if __name__ == "__main__":
    main()
