"""Prediction/label batches and their CSV representation.

A series is an ordered batch of (prediction, label) pairs.  Predictions
must lie strictly inside (0, 1) -- the cross-entropy weight takes logs of
both the prediction and its complement -- and labels are exactly 0 or 1.
When ``chronological`` is set, index order is time order, which the
value-weighted paths rely on.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError, ValidationError


@dataclass(frozen=True, eq=False)
class LabeledSeries:
    predictions: np.ndarray
    labels: np.ndarray
    chronological: bool = True
    timestamps: tuple[str, ...] | None = field(default=None, repr=False)

    def __post_init__(self):
        preds = np.asarray(self.predictions, dtype=np.float64)
        labels = np.asarray(self.labels)
        if preds.ndim != 1 or labels.ndim != 1 or preds.shape != labels.shape:
            raise ValidationError("predictions and labels must be 1-d and equal length")
        if preds.size == 0:
            raise ValidationError("empty series")
        # Written so that NaN, which fails every comparison, fails it too.
        if not np.all((preds > 0.0) & (preds < 1.0)):
            raise ValidationError("predictions must lie strictly inside (0, 1)")
        if not np.all((labels == 0) | (labels == 1)):
            raise ValidationError("labels must be exactly 0 or 1")
        labels = labels.astype(np.int64)
        preds = preds.copy()
        preds.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "predictions", preds)
        object.__setattr__(self, "labels", labels)
        if self.timestamps is not None and len(self.timestamps) != preds.size:
            raise ValidationError("timestamps must match the number of samples")

    @property
    def n(self) -> int:
        return int(self.predictions.size)

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[float, int]], chronological: bool = True
    ) -> "LabeledSeries":
        preds, labels = zip(*pairs)
        return cls(np.array(preds, dtype=np.float64), np.array(labels), chronological)

    def with_predictions(self, predictions: np.ndarray) -> "LabeledSeries":
        return LabeledSeries(predictions, self.labels, self.chronological, self.timestamps)

    def permuted(self, order: Sequence[int]) -> "LabeledSeries":
        idx = np.asarray(order)
        return LabeledSeries(
            self.predictions[idx], self.labels[idx], chronological=False
        )


def read_series_csv(path: str | Path) -> LabeledSeries:
    """Read a `timestamp,label,prediction` CSV (timestamp column optional).

    Row order is time order; the returned series is marked chronological.
    """
    path = Path(path)
    try:
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise InputError(f"{path}: empty series") from None
            header = [h.strip().lower() for h in header]
            if header == ["timestamp", "label", "prediction"]:
                has_ts = True
            elif header == ["label", "prediction"]:
                has_ts = False
            else:
                raise InputError(
                    f"{path}: expected header 'timestamp,label,prediction' or "
                    f"'label,prediction', got {','.join(header)!r}"
                )
            timestamps: list[str] = []
            labels: list[int] = []
            preds: list[float] = []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                expected = 3 if has_ts else 2
                if len(row) != expected:
                    raise InputError(f"{path}:{lineno}: expected {expected} fields")
                if has_ts:
                    timestamps.append(row[0])
                try:
                    labels.append(int(row[-2]))
                    preds.append(float(row[-1]))
                except ValueError as exc:
                    raise InputError(f"{path}:{lineno}: {exc}") from None
    except OSError as exc:
        raise InputError(str(exc)) from None
    if not preds:
        raise InputError(f"{path}: empty series")
    try:
        return LabeledSeries(
            np.array(preds),
            np.array(labels),
            chronological=True,
            timestamps=tuple(timestamps) if has_ts else None,
        )
    except ValidationError as exc:
        raise InputError(f"{path}: {exc}") from None


def write_series_csv(path: str | Path, series: LabeledSeries) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "label", "prediction"])
        stamps = series.timestamps or tuple(str(i) for i in range(series.n))
        for ts, label, pred in zip(stamps, series.labels, series.predictions):
            writer.writerow([ts, int(label), repr(float(pred))])
