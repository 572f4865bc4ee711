"""Exception types shared across the package, and the integer check that
raises one for malformed configuration values."""

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
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise DataError(f"{what} must be an integer >= {low}, got {value!r}")
    return int(value)
