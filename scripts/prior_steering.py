#!/usr/bin/env python3
"""Show the threshold prior steering where a trained model's skill peaks.

Trains the same MLP (same data, same init) twice with a TSS-oriented
loss, once under a prior concentrated at low thresholds and once under
its mirror image, then sweeps the hard TSS over thresholds for both
models.  The skill curve of each model peaks near the mass of the prior
it was trained with.
"""

import argparse

import numpy as np

from wsol.confusion import hard_entries, sweep_thresholds
from wsol.loss import LossSpec
from wsol.scores import ScoreKind, score_array
from wsol.series import LabeledSeries
from wsol.threshold import ThresholdDistribution
from wsol.trainer import (
    MLPModel,
    SyntheticSeriesConfig,
    TrainConfig,
    generate_temporal_dataset,
    train,
)
from wsol.weights import UnitWeight


def skill_curve(model, features, labels, taus):
    series = LabeledSeries(model.forward(features), labels)
    entries = hard_entries(series, taus, UnitWeight())[:, 0]
    return score_array(ScoreKind.TSS, *entries)[0]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=400)
    parser.add_argument("--epochs", type=int, default=300)
    parser.add_argument("--lr", type=float, default=0.3)
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--shape", type=float, default=8.0, help="beta shape contrast")
    args = parser.parse_args()

    cfg = SyntheticSeriesConfig(n=args.n, event_rate=0.2, seed=args.seed)
    features, labels = generate_temporal_dataset(cfg)
    taus = sweep_thresholds(0.02)

    curves = {}
    for alpha, beta in ((2.0, args.shape), (args.shape, 2.0)):
        dist = ThresholdDistribution.beta_prior(alpha, beta)
        spec = LossSpec(ScoreKind.TSS, UnitWeight(), dist)
        model = MLPModel.init((features.shape[1], 8, 1), seed=1)
        train(
            features,
            labels,
            model,
            TrainConfig(loss=spec, epochs=args.epochs, learning_rate=args.lr, seed=1),
        )
        curves[(alpha, beta)] = (dist.mean(), skill_curve(model, features, labels, taus))

    print(f"{'prior':<16}{'prior mean':>11}{'best tau':>10}{'best TSS':>10}"
          f"{'TSS@0.2':>9}{'TSS@0.5':>9}{'TSS@0.8':>9}")
    for (alpha, beta), (mean, curve) in curves.items():
        probe = {p: curve[np.abs(taus - p).argmin()] for p in (0.2, 0.5, 0.8)}
        print(
            f"Beta({alpha:g},{beta:g})".ljust(16)
            + f"{mean:>11.2f}{taus[np.argmax(curve)]:>10.2f}{np.max(curve):>10.3f}"
            + f"{probe[0.2]:>9.3f}{probe[0.5]:>9.3f}{probe[0.8]:>9.3f}"
        )
    print(
        "\nEach model's hard skill peaks near the thresholds its training "
        "prior weighted most."
    )


if __name__ == "__main__":
    main()
