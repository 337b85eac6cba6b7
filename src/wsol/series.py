"""Prediction/label batches, and the CSV files of the package.

A series is an ordered batch of (prediction, label) pairs.  Predictions
must lie strictly inside (0, 1) -- the cross-entropy weight takes logs of
both the prediction and its complement -- and labels are exactly 0 or 1.
Index order is time order, which the value-weighted paths rely on: every
reader takes rows in file order and every builder keeps sample order.

Both CSV formats -- series, and training dataset (finite features, then
a label) -- are read by one skeleton, ``read_csv``; a format supplies only
its header rule and its row conversion.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import InputError, ValidationError


def _checked_predictions(predictions, shape: tuple[int, ...]) -> np.ndarray:
    """A read-only float copy of ``predictions``, 1-d of ``shape``, in (0, 1)."""
    preds = np.array(predictions, dtype=np.float64)
    if preds.ndim != 1 or preds.shape != shape:
        raise ValidationError("predictions and labels must be 1-d and equal length")
    if preds.size == 0:
        raise ValidationError("empty series")
    # Written so that NaN, which fails every comparison, fails it too.
    if not ((preds > 0.0) & (preds < 1.0)).all():
        raise ValidationError("predictions must lie strictly inside (0, 1)")
    preds.flags.writeable = False
    return preds


@dataclass(frozen=True, eq=False)
class LabeledSeries:
    """Predictions and 0/1 labels; ``pos`` and ``neg`` are the classes as
    read-only float masks, built once, which every class sum reads.
    ``label_derived`` keeps other arrays of the labels alone."""

    predictions: np.ndarray
    labels: np.ndarray
    pos: np.ndarray = field(init=False, repr=False)
    neg: np.ndarray = field(init=False, repr=False)
    _derived: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        labels = np.asarray(self.labels)
        preds = _checked_predictions(self.predictions, labels.shape)
        if not ((labels == 0) | (labels == 1)).all():
            raise ValidationError("labels must be exactly 0 or 1")
        labels = labels.astype(np.int64)
        pos = labels.astype(np.float64)
        object.__setattr__(self, "predictions", preds)
        for name, arr in (("labels", labels), ("pos", pos), ("neg", 1.0 - pos)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return int(self.predictions.size)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, int]]) -> "LabeledSeries":
        preds, labels = zip(*pairs)
        return cls(np.array(preds, dtype=np.float64), np.array(labels))

    def with_predictions(self, predictions: np.ndarray) -> "LabeledSeries":
        """The same labels, masks and label-derived arrays with new
        predictions; only those are checked."""
        preds = _checked_predictions(predictions, self.labels.shape)
        series = object.__new__(type(self))
        series.__dict__.update(self.__dict__, predictions=preds)
        return series

    def label_derived(self, key, build) -> np.ndarray:
        """``build(self)`` made read-only, built once per ``key``.

        ``build`` must read the labels alone, since every series that
        ``with_predictions`` makes from this one shares the result.
        """
        arr = self._derived.get(key)
        if arr is None:
            arr = build(self)
            arr.flags.writeable = False
            self._derived[key] = arr
        return arr


def read_csv(path: str | Path, what: str, read_header, build):
    """The skeleton every CSV reader shares: one format is two functions.

    ``read_header`` takes the lower-cased header and returns the row
    conversion, or raises ValueError; ``build`` takes the converted rows.
    Blank lines are skipped, and every other row needs the header's field
    count.  A ValueError from a conversion and a malformed record
    (``csv.Error``) name ``path:line``, the file line on which the record
    ends.  Files are UTF-8, with or without a byte-order mark.  An
    unreadable, non-UTF-8 or rowless file, a ValueError from the header and
    a ValidationError from ``build`` are InputErrors too.
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = [h.strip().lower() for h in next(reader)]
            except StopIteration:
                raise InputError(f"{path}: empty {what}") from None
            try:
                convert = read_header(header)
            except ValueError as exc:
                raise InputError(f"{path}: {exc}") from None
            rows = []
            for row in reader:
                if not row:
                    continue
                try:
                    if len(row) != len(header):
                        raise ValueError(f"expected {len(header)} fields")
                    rows.append(convert(row))
                except ValueError as exc:
                    raise InputError(f"{path}:{reader.line_num}: {exc}") from None
    except OSError as exc:
        raise InputError(str(exc)) from None
    except UnicodeDecodeError as exc:
        # Decoding runs ahead of the rows, so no line can be named.
        raise InputError(f"{path}: not UTF-8 text: {exc.reason}") from None
    except csv.Error as exc:
        raise InputError(f"{path}:{reader.line_num}: {exc}") from None
    if not rows:
        raise InputError(f"{path}: empty {what}")
    try:
        return build(rows)
    except ValidationError as exc:
        raise InputError(f"{path}: {exc}") from None


_SERIES_HEADERS = (["timestamp", "label", "prediction"], ["label", "prediction"])


def _series_header(header: list[str]):
    if header not in _SERIES_HEADERS:
        raise ValueError(
            "expected header 'timestamp,label,prediction' or "
            f"'label,prediction', got {','.join(header)!r}"
        )
    return lambda row: (int(row[-2]), float(row[-1]))


def _build_series(rows: list[tuple]) -> LabeledSeries:
    labels, preds = zip(*rows)
    return LabeledSeries(np.array(preds), np.array(labels))


def read_series_csv(path: str | Path) -> LabeledSeries:
    """Read a `timestamp,label,prediction` CSV (timestamp column optional).

    Row order is time order; timestamp values are accepted and ignored.
    """
    return read_csv(path, "series", _series_header, _build_series)


def write_series_csv(path: str | Path, series: LabeledSeries) -> None:
    """Write a series with its rows numbered 0..n-1 in the timestamp column."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "label", "prediction"])
        for i, (label, pred) in enumerate(zip(series.labels, series.predictions)):
            writer.writerow([i, int(label), repr(float(pred))])


def _dataset_row(row: list[str]) -> tuple[list[float], int]:
    features = [float(v) for v in row[:-1]]
    if not all(math.isfinite(v) for v in features):
        raise ValueError("features must be finite")
    return features, int(row[-1])


def _dataset_header(header: list[str]):
    if len(header) < 2 or header[-1] != "label":
        raise ValueError("expected feature columns then 'label'")
    return _dataset_row


def _build_dataset(rows) -> tuple[np.ndarray, np.ndarray]:
    features, labels = zip(*rows)
    y = np.array(labels)
    if not np.all(np.isin(y, (0, 1))):
        raise ValidationError("labels must be 0 or 1")
    return np.array(features), y


def read_dataset_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read a training CSV: finite feature columns f1..fm then a final label column."""
    return read_csv(path, "dataset", _dataset_header, _build_dataset)

