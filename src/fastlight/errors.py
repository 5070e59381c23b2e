"""Exception hierarchy shared by the whole package, and the bound checks
more than one module applies.

Callers mostly care about two families: bad inputs (``ParameterError``, a
``ValueError``) and computations that failed or left their guaranteed-accuracy
domain at run time (``NumericalError``, a ``RuntimeError``).  The command-line
driver maps the first family to exit code 2 and the second to exit code 3.
"""

import math


class FastlightError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(FastlightError, ValueError):
    """An argument, configuration value, or precondition is invalid."""


class NumericalError(FastlightError, RuntimeError):
    """A numerical procedure failed on otherwise valid inputs."""


class DegenerateParametersError(NumericalError):
    """The response-function denominator vanished for these parameters."""


class ApproximationDomainError(ParameterError):
    """Inputs lie outside the validity domain of the requested approximation."""


class GridResolutionError(ParameterError):
    """A sampling grid is too narrow or too coarse for the requested analysis."""


class GridTooSmallError(NumericalError):
    """Pulse content reached the time-grid boundary; a larger grid is needed."""


class NumericalDerivativeError(NumericalError):
    """The finite-difference step underflowed for the supplied arguments."""


class SingularPostSelectionError(ParameterError):
    """The analyzer angle sits on the singular direction of the weak value."""


class FeasibilityError(ParameterError):
    """The requested total transmission is unreachable at this analyzer angle."""


class ZeroEnergyError(ParameterError):
    """The envelope carries no energy, so arrival statistics are undefined."""


class FitFailureError(NumericalError):
    """The nonlinear fit did not converge.

    Carries the moment-based estimate in ``fallback`` so callers can degrade
    gracefully.
    """

    def __init__(self, message: str, fallback=None):
        super().__init__(message)
        self.fallback = fallback


class OptimizerError(NumericalError):
    """Root bracketing or maximization did not converge."""


class ApproximationWarning(UserWarning):
    """Inputs are near the edge of an approximation's validity domain."""


def check_positive(name: str, value: float) -> None:
    """Raise ParameterError unless ``value`` is finite and > 0."""
    if not (value > 0) or not math.isfinite(value):
        raise ParameterError(f"{name}: must be finite and > 0")


def check_transmission(name: str, value: float) -> None:
    """Raise ParameterError unless the intensity transmission lies in (0, 1]."""
    if not (0 < value <= 1):
        raise ParameterError(f"{name}: must be in (0, 1]; got {value}")
