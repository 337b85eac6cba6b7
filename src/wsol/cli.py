"""Command-line front end.

Subcommands: ``eval`` (threshold sweep + expected matrices for a series),
``loss`` (loss value and optional gradient for a series), ``verify``
(oracle check suite), ``train`` (fit the demo MLP), and ``demo-figure1``
(emit the paired same-matrix series).  Each subparser binds its handler as
``run``, which ``main`` calls, and each default a library function also
uses is read from the library, not restated.  Exit codes: 0 ok, 1 bad input
data, 2 bad config or unwritable output, 3 verification failure, 4 training
divergence, 141 closed stdout.  ``WSOL_SEED`` overrides the default seed.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from pathlib import Path

from . import config as cfg
from . import demo
from .confusion import DEFAULT_SWEEP_STEP, sweep_report, sweep_thresholds
from .errors import (
    ConfigError,
    DegenerateDenominatorError,
    InputError,
    TrainingDivergedError,
    ValidationError,
    finite_json,
)
from .expected import expected_report
from .loss import evaluate_loss
from .oracle import MC_MIN_SAMPLES
from .series import (
    LabeledSeries,
    read_dataset_csv,
    read_series_csv,
    write_series_csv,
)
from .threshold import ThresholdDistribution
from .trainer import (
    MLPModel,
    TrainConfig,
    generate_temporal_dataset,
    train,
    write_history_csv,
)
from .verify import DEFAULT_MC_SAMPLES, format_table, run_verify
from .weights import UnitWeight, ValueMaxWeight

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONFIG = 2
EXIT_VERIFY = 3
EXIT_DIVERGED = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE: a shell's status for a tool SIGPIPE ends

# eval writes one report row per threshold, so a finer grid outgrows memory.
MIN_SWEEP_STEP = 1e-4


def _open_unit_interval(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = float("nan")  # fails the range check, as a NaN argument does
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(
            f"expected a number strictly inside (0, 1), got {text!r}"
        )
    return value


def _sweep_step(text: str) -> float:
    value = _open_unit_interval(text)
    if value < MIN_SWEEP_STEP:
        raise argparse.ArgumentTypeError(
            f"must be at least {MIN_SWEEP_STEP:g}, got {text!r}"
        )
    if sweep_thresholds(value).size == 0:
        raise argparse.ArgumentTypeError(
            f"leaves no threshold below 1 at 10 decimals, got {text!r}"
        )
    return value


def _int_at_least(minimum: int):
    """An argparse type for integers of at least ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
            if value < minimum:
                raise ValueError
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer of at least {minimum}, got {text!r}"
            ) from None
        return value

    return parse


_mc_samples = _int_at_least(MC_MIN_SAMPLES)
_seed = _int_at_least(0)


def _max_weights(text: str) -> ValueMaxWeight:
    try:
        return ValueMaxWeight(omega=tuple(float(v) for v in text.split(",")))
    except (ValueError, ValidationError) as exc:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated omega weights, got {text!r}: {exc}"
        ) from None


def _layer_sizes(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(v) for v in text.split(",")) if text else ()
        if any(size < 1 for size in sizes):
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated positive integers, got {text!r}"
        ) from None
    return sizes


_SEED_HELP = "non-negative integer; defaults to $WSOL_SEED, else 2024"


class _Parser(argparse.ArgumentParser):
    # A usage error is one stderr line, as every other error is; -h prints
    # the usage.  Subcommand parsers take this class from their parent.
    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wsol")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="score a series file under a config")
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--out", default="report.json")
    p_eval.add_argument("--sweep-step", type=_sweep_step, default=DEFAULT_SWEEP_STEP)
    p_eval.set_defaults(run=cmd_eval)

    p_loss = sub.add_parser("loss", help="evaluate a loss spec on a series")
    p_loss.add_argument("--data", required=True)
    p_loss.add_argument("--loss", required=True)
    p_loss.add_argument(
        "--gradient",
        action="store_true",
        help="also print the per-prediction gradient as CSV",
    )
    p_loss.set_defaults(run=cmd_loss)

    p_verify = sub.add_parser("verify", help="run the oracle check suite")
    p_verify.add_argument("--seed", type=_seed, default=None, help=_SEED_HELP)
    p_verify.add_argument(
        "--samples",
        type=_mc_samples,
        default=DEFAULT_MC_SAMPLES,
        help=f"Monte Carlo draws per oracle call, at least {MC_MIN_SAMPLES}",
    )
    p_verify.add_argument("--only", default=None)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(run=cmd_verify)

    p_train = sub.add_parser("train", help="train the demo MLP")
    source = p_train.add_mutually_exclusive_group()
    source.add_argument("--data", default=None, help="CSV with feature columns + label")
    source.add_argument("--synth", default=None, help="synthetic dataset config JSON")
    p_train.add_argument("--loss", required=True)
    p_train.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p_train.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p_train.add_argument("--seed", type=_seed, default=None, help=_SEED_HELP)
    p_train.add_argument(
        "--hidden",
        type=_layer_sizes,
        default="8",
        help="hidden layer widths, comma-separated; empty for none",
    )
    p_train.add_argument("--chunk", type=int, default=None)
    p_train.add_argument("--out-dir", default="train_out")
    p_train.set_defaults(run=cmd_train)

    p_demo = sub.add_parser(
        "demo-figure1", help="emit the paired series with identical matrices"
    )
    p_demo.add_argument("--out-dir", default="demo_out")
    p_demo.add_argument("--omega", type=_max_weights, default=demo.DEFAULT_DEMO_WEIGHTS)
    p_demo.add_argument("--tau", type=_open_unit_interval, default=demo.DEMO_THRESHOLD)
    p_demo.set_defaults(run=cmd_demo_figure1)
    return parser


def _check_output(path: str, *, directory: bool = False) -> None:
    """Raise, before any work, the OSError that writing ``path`` would, naming
    the path.  A file output may not be a directory, and its parent must be
    a directory we may write in; a directory output may not be a file, and
    its nearest existing ancestor, itself included, must be such a directory."""
    out = Path(path)
    if directory:
        base = next(p for p in (out, *out.parents) if p.exists())
    else:
        base = out.parent
    if out.exists() and out.is_dir() != directory:
        code = errno.EEXIST if directory else errno.EISDIR
    elif not base.exists():
        code = errno.ENOENT
    elif not base.is_dir():
        code = errno.ENOTDIR
    elif not os.access(base, os.W_OK | os.X_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), str(out))


def cmd_eval(args) -> int:
    document = cfg.load_config(args.config)
    dist = document.get("distribution") or ThresholdDistribution.uniform()
    weights = document.get("weights") or UnitWeight()
    series = read_series_csv(args.data)
    thresholds = sweep_thresholds(args.sweep_step)
    report = {
        "n": series.n,
        "positives": int(series.labels.sum()),
        "expected": expected_report(series, dist, weights),
    }
    report.update(sweep_report(series, thresholds, weights))
    if "score" in document:
        report["headline_score"] = document["score"].value
    Path(args.out).write_text(finite_json(report, indent=2))
    print(f"wrote {args.out} ({series.n} samples, {len(thresholds)} thresholds)")
    return EXIT_OK


def cmd_loss(args) -> int:
    spec = cfg.load_loss(args.loss)
    series = read_series_csv(args.data)
    ev = evaluate_loss(series, spec)
    # Taken before anything is printed: an undefined derivative prints nothing.
    grad = ev.gradient() if args.gradient else None
    print(f"loss,{float(ev.value)!r}")
    for k, ((component, _), result) in enumerate(zip(spec.components, ev.results)):
        if result.degenerate:
            print(
                f"warning: component {k} ({component.score.value}) has a zero "
                f"score denominator on this series; its score is taken as 0",
                file=sys.stderr,
            )
    if grad is not None:
        rows = (f"{i},{v!r}" for i, v in enumerate(grad.values.tolist()))
        print("\n".join(["index,gradient", *rows]))
        if grad.nonsmooth:
            print(
                f"warning: one-sided derivatives at kink indices "
                f"{list(grad.kink_indices)}",
                file=sys.stderr,
            )
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.out:
        _check_output(args.out)
    results = run_verify(seed=args.seed, samples=args.samples, only=args.only)
    if not results:
        print(f"no checks match --only {args.only!r}", file=sys.stderr)
        return EXIT_VERIFY
    if args.out:
        Path(args.out).write_text(finite_json(results, indent=2))
    print(format_table(results))
    if all(r["passed"] for r in results):
        return EXIT_OK
    for r in results:
        if not r["passed"]:
            print(f"failed: {r['name']}: {r['detail']}", file=sys.stderr)
    return EXIT_VERIFY


def cmd_train(args) -> int:
    if args.data is None and args.synth is None:
        raise InputError("train needs --data or --synth")
    loss = cfg.load_loss(args.loss)
    train_cfg = TrainConfig(
        loss=loss,
        epochs=args.epochs,
        learning_rate=args.lr,
        seed=args.seed,
        chunk=args.chunk,
    )
    _check_output(args.out_dir, directory=True)
    if args.data is not None:
        features, labels = read_dataset_csv(args.data)
    else:
        synth = cfg.parse_synth(cfg.load_json(args.synth))
        features, labels = generate_temporal_dataset(synth)
    model = MLPModel.init((features.shape[1], *args.hidden, 1), seed=args.seed)
    result = train(features, labels, model, train_cfg)
    head = loss.components[0][0]
    preds = result.model.forward(features)
    series = LabeledSeries(preds, labels)
    report = sweep_report(series, sweep_thresholds(), head.weights)
    report["expected"] = expected_report(series, head.dist, head.weights)
    # Serialised before the output directory exists, so a report that JSON
    # cannot hold leaves no partial output.
    evaluation = finite_json(report, indent=2)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result.model.save(out / "checkpoint.json")
    write_history_csv(out / "history.csv", result.history)
    (out / "evaluation.json").write_text(evaluation)
    final = result.history[-1] if result.history else None
    if final:
        print(
            f"trained {args.epochs} epochs; final loss {final.loss:.6f}, "
            f"{head.score.value} classical {final.score_classical:.4f}, "
            f"weighted {final.score_weighted:.4f}"
        )
    print(f"wrote {out}/checkpoint.json, history.csv, evaluation.json")
    return EXIT_OK


def cmd_demo_figure1(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_series_csv(out / "series_adjacent_errors.csv", demo.adjacent_error_series())
    write_series_csv(out / "series_isolated_errors.csv", demo.isolated_error_series())
    comparison = demo.compare_series(weights=args.omega, tau=args.tau)
    (out / "comparison.json").write_text(finite_json(comparison, indent=2))
    cm = comparison["confusion"]
    print(
        f"both series: tn={cm['tn']} fp={cm['fp']} fn={cm['fn']} tp={cm['tp']} "
        f"at tau={comparison['tau']}"
    )
    print(f"{'score':<14}{'classical':>12}{'adjacent':>12}{'isolated':>12}")
    weighted = comparison["weighted_scores"]
    for name, classical in comparison["classical_scores"].items():
        print(
            f"{name:<14}{classical:>12.5f}"
            f"{weighted['adjacent_errors'][name]:>12.5f}"
            f"{weighted['isolated_errors'][name]:>12.5f}"
        )
    print(f"wrote {out}/series_*.csv, comparison.json")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # An unset --seed falls back to $WSOL_SEED, which is checked like the flag.
    if hasattr(args, "seed") and args.seed is None:
        try:
            args.seed = _seed(os.environ.get("WSOL_SEED", "2024"))
        except argparse.ArgumentTypeError as exc:
            parser.error(f"WSOL_SEED: {exc}")
    try:
        code = args.run(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # Python would fail again flushing stdout at exit; devnull takes it.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DegenerateDenominatorError as exc:
        print(
            f"input error: score derivative undefined on this series: {exc}",
            file=sys.stderr,
        )
        return EXIT_INPUT
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TrainingDivergedError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        # An argument sized past memory, such as --samples, a long omega or
        # a wide --hidden; numpy names the array it could not allocate.
        print(f"error: out of memory: {exc or 'allocation failed'}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        # The input readers map their own, so this one came from an output.
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
