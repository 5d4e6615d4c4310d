"""Exception hierarchy shared by all qclock modules, and the number check
every validated config field goes through."""

import numbers


class QClockError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(QClockError, ValueError):
    """An invariant on a configuration or input value is violated."""


class DomainError(QClockError, ValueError):
    """An argument lies outside the documented domain of an operation."""


class ConvergenceError(QClockError, RuntimeError):
    """Adaptive quadrature ran out of depth before reaching tolerance.

    Carries the best available estimate and the achieved error bound so
    callers can decide whether the partial result is still usable.
    """

    def __init__(self, message, best_estimate, error_estimate):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate


class DegenerateDistributionError(QClockError, ArithmeticError):
    """A density integrates to zero (or worse) and cannot be normalized."""


class UnsupportedSchemeError(QClockError, ValueError):
    """The requested arrival-time scheme does not support this operation."""


class AmbiguousPeakError(QClockError, RuntimeError):
    """A distribution has no isolated maximum to report."""


class ConfigParseError(QClockError, ValueError):
    """A configuration document is malformed.

    ``line`` is the 1-based line number of the offending entry, when known.
    """

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


def as_number(name, value, kind=numbers.Real):
    """``value`` as a Python float, or as an int when ``kind`` is
    ``numbers.Integral``, so that every numeric type writes the same bytes.

    ``bool`` and anything that is not a ``kind`` raise ValidationError.
    """
    if isinstance(value, bool) or not isinstance(value, kind):
        noun = "an integer" if kind is numbers.Integral else "a real number"
        raise ValidationError(
            f"{name} must be {noun}, not {type(value).__name__}")
    if kind is numbers.Integral:
        return int(value)
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{name} is too large for a float") from None
