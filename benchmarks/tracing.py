"""Span recorders around wsol's public functions, for the traced run only.

``Tracer.install`` replaces each function named in TARGETS with a wrapper
that records a span (name, start, end, parent, op id).  Module-level
functions are replaced in every loaded ``wsol`` module namespace that
binds them, because ``loss``, ``trainer`` and ``oracle`` import them by
name; methods are replaced on their class.  ``Tracer.uninstall`` puts
every original back, so untraced runs never pay for a wrapper.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# Metric prefix -> (wsol submodule, attribute path).  LabeledSeries spans
# cover construction and validation, so its __init__ is wrapped.
TARGETS = {
    "threshold.cdf": ("threshold", "ThresholdDistribution.cdf"),
    "threshold.pdf": ("threshold", "ThresholdDistribution.pdf"),
    "threshold.sample": ("threshold", "ThresholdDistribution.sample"),
    "threshold.regularized_incomplete_beta": ("threshold", "regularized_incomplete_beta"),
    "weights.eval_weight": ("weights", "eval_weight"),
    "confusion.hard_confusion": ("confusion", "hard_confusion"),
    "confusion.weighted_hard_confusion": ("confusion", "weighted_hard_confusion"),
    "expected.expected_confusion": ("expected", "expected_confusion"),
    "expected.expected_tp_tn": ("expected", "expected_tp_tn"),
    "expected.expected_wfp": ("expected", "expected_wfp"),
    "expected.expected_wfn": ("expected", "expected_wfn"),
    "scores.apply_score": ("scores", "apply_score"),
    "scores.score_partials": ("scores", "score_partials"),
    "loss.loss_value": ("loss", "loss_value"),
    "loss.loss_gradient": ("loss", "loss_gradient"),
    "loss.combined_loss": ("loss", "combined_loss"),
    "oracle.exact_expected_confusion": ("oracle", "exact_expected_confusion"),
    "oracle.mc_expected_confusion": ("oracle", "mc_expected_confusion"),
    "oracle.batch_weighted_entries": ("oracle", "batch_weighted_entries"),
    "trainer.train": ("trainer", "train"),
    "trainer.MLPModel.forward": ("trainer", "MLPModel.forward"),
    "trainer.MLPModel.backward": ("trainer", "MLPModel.backward"),
    "series.LabeledSeries": ("series", "LabeledSeries.__init__"),
}

OP_SPAN = "op"
SAMPLE_SPAN = "threshold.sample"
_MARKER = "__perfbench_span__"


def _sample_draws(args, kwargs) -> int:
    # ThresholdDistribution.sample(self, rng, size=None); None draws one value.
    size = kwargs.get("size", args[2] if len(args) > 2 else None)
    return 1 if size is None else int(size)


def wsol_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "wsol" or name.startswith("wsol."))
    ]


def leftover_wrappers() -> list[str]:
    """Names of span wrappers still reachable from wsol modules or their classes."""
    found = []
    for module in wsol_modules():
        for key, value in vars(module).items():
            if hasattr(value, _MARKER):
                found.append(f"{module.__name__}.{key}")
            if isinstance(value, type) and value.__module__.startswith("wsol"):
                for attr, member in vars(value).items():
                    if hasattr(member, _MARKER):
                        found.append(f"{module.__name__}.{key}.{attr}")
    return sorted(set(found))


class Tracer:
    """Records nested spans in memory while installed.

    A span is a list [name, start, end, parent index, op id]; parent is -1
    for a span opened outside every other span.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.draws = 0
        self._stack: list[int] = []
        self._op = -1
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def _record(self, name, fn, args, kwargs):
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def _wrap(self, name, fn):
        if name == SAMPLE_SPAN:

            def wrapper(*args, **kwargs):
                self.draws += _sample_draws(args, kwargs)
                return self._record(name, fn, args, kwargs)

        else:

            def wrapper(*args, **kwargs):
                return self._record(name, fn, args, kwargs)

        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, _MARKER, name)
        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        try:
            for name, (module_name, path) in TARGETS.items():
                module = importlib.import_module(f"wsol.{module_name}")
                owner_path, _, attr = path.rpartition(".")
                if owner_path:
                    owner = getattr(module, owner_path)
                    self._patch(owner, attr, self._wrap(name, vars(owner)[attr]))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(name, original)
                for namespace in wsol_modules():
                    for key, value in list(vars(namespace).items()):
                        if value is original:
                            self._patch(namespace, key, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def op(self, op_id: int):
        """Root span of one op; every span opened inside carries op_id.

        Yields the span, whose start and end are set once the block exits.
        """
        self._op = op_id
        span = self._open(OP_SPAN)
        try:
            yield span
        finally:
            self._close(span)
            self._op = -1

    def write_jsonl(self, path) -> None:
        """One JSON object per span; times in microseconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start_us": round((start - t0) * 1e6, 3),
                            "end_us": round((end - t0) * 1e6, 3),
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )


def self_times(spans) -> tuple[dict[str, float], Counter]:
    """Total self time (seconds) and call count per span name.

    A span's self time is its duration minus the durations of its direct
    children.  Spans of one thread nest without overlap, so the children's
    durations are exactly the part of the interval they cover, and a name
    that re-enters itself is not counted twice.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for index, (name, start, end, _, _) in enumerate(spans):
        self_s[name] += (end - start) - covered[index]
        calls[name] += 1
    return dict(self_s), calls
