"""Argument-validation helpers.

Every public constructor in the package validates its arguments eagerly and
raises :class:`repro.exceptions.InvalidParameterError` with a message that
names the offending parameter.  Centralising the checks here keeps the error
messages uniform and the call sites short.
"""

from __future__ import annotations

import operator
from typing import Iterable, Sequence

from repro.exceptions import InvalidParameterError

__all__ = [
    "check_positive_int",
    "check_in_range",
    "check_index",
    "check_sequence_of_ints",
    "check_probability",
]


def check_positive_int(value: object, name: str, *, minimum: int = 1) -> int:
    """Validate that *value* is an ``int`` with ``value >= minimum``.

    Parameters
    ----------
    value:
        The object to validate.  ``bool`` is rejected even though it is an
        ``int`` subclass, because ``True`` silently meaning ``1`` is almost
        always a bug at the call sites in this package.
    name:
        Parameter name used in the error message.
    minimum:
        Smallest accepted value (inclusive).

    Returns
    -------
    int
        The validated value, unchanged.

    Raises
    ------
    InvalidParameterError
        If *value* is not an integer or is below *minimum*.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidParameterError(f"{name} must be an int, got {type(value).__name__}")
    if value < minimum:
        raise InvalidParameterError(f"{name} must be >= {minimum}, got {value}")
    return value


def check_in_range(value: int, name: str, low: int, high: int) -> int:
    """Validate ``low <= value <= high`` (both inclusive)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidParameterError(f"{name} must be an int, got {type(value).__name__}")
    if not (low <= value <= high):
        raise InvalidParameterError(f"{name} must be in [{low}, {high}], got {value}")
    return value


def check_index(value: object, name: str, size: int) -> int:
    """Validate a dense index ``0 <= value < size``; return it as a plain ``int``.

    NumPy integer scalars are accepted (through ``operator.index``); ``bool``
    and non-integral numbers such as ``2.0`` are rejected.
    """
    if isinstance(value, bool):
        raise InvalidParameterError(f"{name} must be an int, got bool")
    try:
        index = operator.index(value)
    except TypeError:
        raise InvalidParameterError(
            f"{name} must be an int, got {type(value).__name__}"
        ) from None
    if not (0 <= index < size):
        raise InvalidParameterError(f"{name} must be in [0, {size}), got {value}")
    return index


def check_sequence_of_ints(values: Iterable[object], name: str) -> tuple:
    """Validate that *values* is a finite iterable of plain ints; return a tuple."""
    try:
        seq: Sequence[object] = tuple(values)  # type: ignore[arg-type]
    except TypeError as exc:  # pragma: no cover - defensive
        raise InvalidParameterError(f"{name} must be an iterable of ints") from exc
    for item in seq:
        if isinstance(item, bool) or not isinstance(item, int):
            raise InvalidParameterError(
                f"{name} must contain only ints, found {type(item).__name__}"
            )
    return tuple(seq)  # type: ignore[return-value]


def check_probability(value: float, name: str) -> float:
    """Validate that *value* is a float-like number in ``[0, 1]``."""
    try:
        as_float = float(value)
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(f"{name} must be a number in [0, 1]") from exc
    if not (0.0 <= as_float <= 1.0):
        raise InvalidParameterError(f"{name} must be in [0, 1], got {value}")
    return as_float
