"""Exception types shared across the package, the number checks, and the
JSON writer that refuses non-finite numbers.

The CLI maps these onto its exit codes (input 1, config 2, verification 3,
divergence 4), so library code should raise the most specific type it can.
"""

import json
import math
import numbers


class WsolError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(WsolError):
    """A value object or argument violates a documented precondition."""


class InputError(WsolError):
    """A data file is malformed, empty, or holds out-of-domain values."""


class ConfigError(WsolError):
    """A config document is malformed or holds unknown keys."""


class UnsupportedCombinationError(ConfigError):
    """A weight/prior combination with no supported closed form."""


class DegenerateDenominatorError(WsolError):
    """A score partial derivative was requested at a zero denominator."""


class TrainingDivergedError(WsolError):
    """Training produced a non-finite loss; carries the epoch index."""

    def __init__(self, epoch: int, message: str = ""):
        self.epoch = epoch
        super().__init__(message or f"non-finite loss at epoch {epoch}")


def check_finite(name: str, value) -> float:
    """``value`` as a float; ValidationError unless it is a finite real number.

    Every constructor that takes a real parameter calls this first, since
    NaN passes every range comparison written with ``<`` or ``<=``.  A
    string or a boolean is not a number here, although ``float()`` takes both;
    an integer too large for a float is not finite.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return number


def check_integer(name: str, value) -> int:
    """``value`` as an int; ValidationError unless it is a finite whole number."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    number = check_finite(name, value)
    if not number.is_integer():
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(number)


def check_convex(name: str, values) -> tuple[float, ...]:
    """``values`` as floats; ValidationError unless they are finite,
    non-negative and sum to 1 within 1e-12: convex combination weights."""
    values = tuple(check_finite(name, v) for v in values)
    if any(v < 0 for v in values):
        raise ValidationError(f"{name} must be non-negative")
    if abs(sum(values) - 1.0) > 1e-12:
        raise ValidationError(f"{name} must sum to 1")
    return values


def finite_json(doc, indent: int | None = None) -> str:
    """``doc`` as JSON text; ValidationError if it holds a NaN or an infinity.

    JSON has no token for either, and Python's default writes bare ``NaN``
    and ``Infinity``, which other readers reject.  Every document the package
    writes goes through here, before its file is opened.
    """
    try:
        return json.dumps(doc, indent=indent, allow_nan=False)
    except ValueError as exc:
        raise ValidationError(f"cannot write JSON: {exc}") from None
