"""Exception types shared across the package, and the four value rules that
raise one for a malformed configuration or document value: an integer with
a floor, a finite number in a range, a flag and a choice from a set."""

import math
import numbers


class TabDistillError(Exception):
    """Base class for all package errors."""


class DataError(TabDistillError):
    """Malformed or unusable input data (bad CSV cell, empty split, ...)."""


class SchemaMismatchError(TabDistillError):
    """Rows do not conform to the schema a model was trained on."""


class TrainingError(TabDistillError):
    """A learner could not be trained on the given inputs."""


class SerializationError(TabDistillError):
    """A persisted document is corrupt or has an unknown version."""


class VerificationError(TabDistillError):
    """A numerical verification suite reported a failure."""


def require_integer(value, what: str, low: int = 0) -> int:
    """``value`` as an int if it is an integer (not a bool) of at least
    ``low``; anything else raises DataError naming ``what``."""
    # int first: a plain int skips the slower abstract-class check
    if isinstance(value, bool) or not isinstance(value, (int, numbers.Integral)) or value < low:
        raise DataError(f"{what} must be an integer >= {low}, got {value!r}")
    return int(value)


def require_number(value, what: str, low=None, high=None, ends: str = "[]"):
    """``value`` as given if it is a finite real number, never a bool or a
    str, between ``low`` and ``high``; ``ends`` marks each end closed (``[``,
    ``]``) or open (``(``, ``)``). Give both ends, a ``low`` of 0 alone, or
    neither. Anything else raises DataError naming ``what``."""
    try:
        ok = (not isinstance(value, bool) and isinstance(value, (float, int, numbers.Real))
              and math.isfinite(value)
              and (low is None or (low <= value if ends[0] == "[" else low < value))
              and (high is None or (value <= high if ends[1] == "]" else value < high)))
    except OverflowError:  # an int beyond the float range
        ok = False
    if not ok:
        rule = (f"lie in {ends[0]}{low}, {high}{ends[1]}" if high is not None
                else "be finite" if low is None
                else f"be {'nonnegative' if ends[0] == '[' else 'positive'} and finite")
        raise DataError(f"{what} must {rule}, got {value!r}")
    return value


def require_flag(value, what: str) -> bool:
    """``value`` if it is exactly True or False, else DataError."""
    if not isinstance(value, bool):
        raise DataError(f"{what} must be true or false, got {value!r}")
    return value


def require_choice(value, what: str, choices: tuple):
    """``value`` if it is one of ``choices``, else DataError."""
    if not any(type(value) is type(c) and value == c for c in choices):
        raise DataError(f"{what} must be one of {list(choices)}, got {value!r}")
    return value
