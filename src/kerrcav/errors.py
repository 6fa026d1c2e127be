"""Exception types shared across the package."""


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
