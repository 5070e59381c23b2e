"""The package's two error families, its fit failure and its warning, and the
bound checks more than one module applies.

Every error the package raises belongs to one of two families: bad inputs
(``ParameterError``, a ``ValueError``) and computations that failed or left
their guaranteed-accuracy domain at run time (``NumericalError``, a
``RuntimeError``).  The command-line driver maps the first family to exit
code 2 and the second to exit code 3.  ``FitFailureError`` is the one
numerical failure that carries data: the estimate a caller can fall back on.
"""

import math


class ParameterError(ValueError):
    """An argument, configuration value, or precondition is invalid."""


class NumericalError(RuntimeError):
    """A numerical procedure failed on otherwise valid inputs."""


class FitFailureError(NumericalError):
    """The nonlinear fit did not converge.

    Carries the moment-based estimate in ``fallback`` so callers can degrade
    gracefully.
    """

    def __init__(self, message: str, fallback=None):
        super().__init__(message)
        self.fallback = fallback


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
