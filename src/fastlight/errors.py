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
import reprlib

import numpy as np


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


def check_number(name: str, value) -> None:
    """Raise ParameterError naming ``name`` unless ``value`` compares with a number."""
    try:
        value < 0.0
    except TypeError:  # not a real number: the package's one place to refuse it
        raise ParameterError(f"{name}: must be a number; got {value!r}") from None


def check_grid(name: str, values) -> np.ndarray:
    """Raise ParameterError naming ``name`` unless numpy reads ``values`` as real numbers (not
    ragged rows); return numpy's float64 array of them, uncopied if it is one, and a number as
    one row: numpy would treat a 0-d array as a scalar, with its own rounding."""
    try:
        array = np.asarray(values)
    except ValueError:  # ragged rows: numpy reads no array shape
        array = None
    if array is None or array.dtype.kind not in "biuf":
        raise ParameterError(f"{name}: must be a number or an array of numbers; "
                             f"got {reprlib.repr(values)}")
    return np.atleast_1d(array.astype(float, copy=False))


def check_positive(name: str, value: float) -> None:
    """Raise ParameterError unless ``value`` is a finite number > 0."""
    check_number(name, value)
    if not (value > 0 and math.isfinite(value)):
        raise ParameterError(f"{name}: must be finite and > 0")


def check_nonnegative(name: str, value: float) -> None:
    """Raise ParameterError unless ``value`` is a finite number >= 0."""
    check_number(name, value)
    if not (value >= 0 and math.isfinite(value)):
        raise ParameterError(f"{name}: must be finite and >= 0")


def check_transmission(name: str, value: float) -> None:
    """Raise ParameterError unless the intensity transmission is a number in (0, 1]."""
    check_number(name, value)
    if not 0 < value <= 1:
        raise ParameterError(f"{name}: must be in (0, 1]; got {value}")


def check_path(name: str, value: str) -> None:
    """Raise ParameterError if the path ``value`` holds a NUL, which no OS path can."""
    if "\0" in value:
        raise ParameterError(f"{name}: must not contain a NUL character")


def check_angle_deg(name: str, value: float) -> None:
    """Raise ParameterError unless the analyzer angle is a number in (-90, 90] degrees."""
    check_number(name, value)
    if not -90.0 < value <= 90.0:
        raise ParameterError(f"{name}: must lie in (-90, 90] deg; got {float(value)!r} deg")
