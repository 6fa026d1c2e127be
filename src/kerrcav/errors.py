"""Exception types shared across the package."""
import numbers


class KerrcavError(Exception):
    """Base class for all package errors."""


class ValidationError(KerrcavError):
    """Invalid input: malformed parameters, spaces, configs or matrices."""


class GuardError(KerrcavError):
    """A physics or numerical guard was violated (regime, step size, pulse speed)."""


class CalibrationError(KerrcavError):
    """A calibration search failed to reach its required quality."""


class WorkerError(KerrcavError):
    """A worker process ended before it returned its result."""


def require_integer(value, minimum: int, what: str) -> None:
    """Reject anything but an integer >= ``minimum`` (a bool too), by name."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < minimum):
        raise ValidationError(
            f"{what} must be an integer >= {minimum}, got {value!r}")
