"""Exception types shared across the package, and its argument checks.

Public functions convert their arguments through the checkers here,
each inside a ``try``, and use the value it returns: a ragged list, a text
cell, ``None`` or a float count raises a ``ValidationError`` subclass, not
a bare numpy or Python error.
"""

from __future__ import annotations

import math
import operator

import numpy as np


class SpokesenseError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(SpokesenseError, ValueError):
    """An input violates a documented precondition."""


class EmptyInputError(ValidationError):
    """An input is empty, or too short for the requested operation."""


class DegenerateInputError(ValidationError):
    """An input is degenerate for the requested statistic (e.g. zero variance)."""


class LayoutMismatchError(ValidationError):
    """A feature vector's layout does not match the consumer's expectation."""


class NotPositiveDefiniteError(SpokesenseError):
    """A matrix required to be positive definite is not.

    ``minor_index`` is the 1-based order of the leading principal minor at
    which the Cholesky factorization failed.
    """

    def __init__(self, minor_index: int):
        self.minor_index = int(minor_index)
        super().__init__(
            "matrix is not positive definite: leading principal minor "
            f"{self.minor_index} is not positive"
        )


class FormatError(SpokesenseError):
    """An on-disk document is malformed.

    ``line`` (1-based) and ``field`` locate the offending cell when known.
    """

    def __init__(self, message: str, *, line: int | None = None, field: str | None = None):
        self.line = line
        self.field = field
        parts = [message]
        if line is not None:
            parts.append(f"line {line}")
        if field is not None:
            parts.append(f"field {field!r}")
        super().__init__(f"{message} ({', '.join(parts[1:])})" if parts[1:] else message)


class UnsupportedVersionError(FormatError):
    """A document declares a version this reader does not support."""


def _finite_array(x, what: str, shape: tuple | None, min_len: int = 1) -> np.ndarray:
    """``x`` as a finite float64 array of ``shape``: None marks a free
    dimension of at least ``min_len``, and ``shape=None`` any number of free
    ones.  A fixed dimension of the wrong length raises LayoutMismatchError,
    an empty or too short free one EmptyInputError."""
    try:
        arr = np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} is not a numeric array: {exc}") from None
    if shape is None:
        shape = (None,) * arr.ndim
    elif arr.ndim != len(shape):
        raise ValidationError(f"{what} must have {len(shape)} dimension(s), got shape {arr.shape}")
    for have, want in zip(arr.shape, shape):
        if want is not None and have != want:
            raise LayoutMismatchError(f"{what} has shape {arr.shape}, expected {shape}")
        if want is None and have < min_len:
            if arr.size == 0:
                raise EmptyInputError(f"{what} is empty")
            raise EmptyInputError(f"{what} of shape {arr.shape} is too short; need {min_len}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{what} contains non-finite values")
    return arr


def _positive(value, what: str, zero_ok: bool = False) -> float:
    """``float(value)``, which must be finite and > 0 (>= 0 with ``zero_ok``)."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{what} must be a real number, got {value!r}") from None
    if not math.isfinite(number) or number < 0.0 or (number == 0.0 and not zero_ok):
        bound = ">=" if zero_ok else ">"
        raise ValidationError(f"{what} must be finite and {bound} 0, got {value!r}")
    return number


def _count(value, what: str, minimum: int) -> int:
    """``value`` as an integer (``operator.index``), which must be >= ``minimum``."""
    try:
        number = operator.index(value)
    except TypeError:
        raise ValidationError(f"{what} must be an integer, got {value!r}") from None
    if number < minimum:
        raise ValidationError(f"{what} must be >= {minimum}, got {number}")
    return number


def _seed(value, what: str = "seed") -> int:
    """``value`` as an integer (``operator.index``) in [0, 2^64), the one
    seed rule: a seed outside the range raises, it is never reduced."""
    number = _count(value, what, 0)
    if number >> 64:
        raise ValidationError(f"{what} must be < 2^64, got {number}")
    return number
