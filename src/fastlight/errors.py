"""The package's two error families, its fit failure and its warning, and the
bound checks its modules share.

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
    """Raise ParameterError unless ``value`` is a finite number > 0."""
    try:
        valid = value > 0 and math.isfinite(value)
    except TypeError:  # not a real number: refused below, by name
        valid = False
    if not valid:
        raise ParameterError(f"{name}: must be finite and > 0")


def check_nonnegative(name: str, value: float) -> None:
    """Raise ParameterError unless ``value`` is a finite number >= 0."""
    try:
        valid = value >= 0 and math.isfinite(value)
    except TypeError:
        valid = False
    if not valid:
        raise ParameterError(f"{name}: must be finite and >= 0")


def check_transmission(name: str, value: float) -> None:
    """Raise ParameterError unless the intensity transmission is a number in (0, 1]."""
    try:
        valid = 0 < value <= 1
    except TypeError:
        valid = False
    if not valid:
        raise ParameterError(f"{name}: must be in (0, 1]; got {value}")


def check_path(name: str, value: str) -> None:
    """Raise ParameterError if the path ``value`` holds a NUL, which no OS path can."""
    if "\0" in value:
        raise ParameterError(f"{name}: must not contain a NUL character")


def check_angle_deg(name: str, value: float) -> None:
    """Raise ParameterError unless the analyzer angle is a number in (-90, 90] degrees."""
    try:
        valid = -90.0 < value <= 90.0
    except TypeError:  # not a real number: refused by name
        raise ParameterError(f"{name}: must be a number of degrees; got {value!r}") from None
    if not valid:
        raise ParameterError(f"{name}: must lie in (-90, 90] deg; got {float(value)!r} deg")
