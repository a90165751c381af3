"""Exception types shared across the toolkit.

Everything raised on bad input derives from :class:`ValidationError`, which
is also a ``ValueError`` so callers can catch either. Errors that map to
dedicated CLI exit codes (:class:`NoSignalError`, :class:`ParseError`) stand
on their own.
"""

import math


class SprayLinkError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(SprayLinkError, ValueError):
    """An input violates a documented invariant."""


def require_positive(name, value):
    """Raise ValidationError unless value is finite and > 0."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValidationError(f"{name} must be finite and > 0, got {value!r}")


class BoundsViolationError(ValidationError):
    """A parameter fell outside its admissible interval.

    Attributes:
        name: parameter name.
        value: offending value.
        interval: (lo, hi) admissible closed interval.
    """

    def __init__(self, name, value, lo, hi):
        self.name = name
        self.value = value
        self.interval = (lo, hi)
        super().__init__(
            f"{name} = {value!r} outside admissible interval [{lo!r}, {hi!r}]"
        )


class OutOfCalibrationError(ValidationError):
    """A voltage or a modeled concentration lies beyond the sensitivity curve's range."""


class AlignmentError(ValidationError):
    """Two traces do not share a common sample grid; resample one first."""


class InsufficientDataError(ValidationError):
    """Not enough data points for the requested analysis."""


class MeasurementError(ValidationError):
    """A physical measurement record is inconsistent."""


class NoSignalError(SprayLinkError):
    """A trace carries no usable signal."""


class ParseError(SprayLinkError):
    """A data file could not be parsed.

    Attributes:
        path: file the error occurred in, if known.
        line: 1-based line number, if known.
    """

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}: "
        if line is not None:
            where += f"line {line}: "
        super().__init__(where + message)
