"""Arrival-time estimation and the loss budget of post-selected advancement.

Estimation: the arrival of an intensity envelope |E(t)|^2 is located either
by its centroid (exact for any profile, sensitive to tails) or by a
Levenberg-Marquardt Gaussian fit (matches how peak positions are read off in
practice; robust to truncation, reports a residual as a distortion score).

Loss budget: a bare line that transmits T advances the peak by
t_atom = -ln(T) / (2 gamma').  Splitting the light into unequal H/V weights,
passing only H through the line, and post-selecting at analyzer angle theta
reaches the *same* end-to-end throughput T with a line transmission
T~ = T / (2 sin^2(theta+pi/4) - T), amplifying the (smaller) bare advance by
the weak value A_w(theta).  The best post-selected advance at fixed loss is

    t_wva(T) = max_theta  A_w(theta) ln(2 sin^2(theta+pi/4)/T - 1) / (2 gamma')

over the feasible angles sin^2(theta+pi/4) >= T, sin(theta)+cos(theta) > 0.
t_wva beats t_atom at strong loss (small T) and loses at mild loss; the two
cross near T ~ 5-6 %, independent of gamma'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .errors import (
    FitFailureError,
    NumericalError,
    ParameterError,
    check_positive,
    check_transmission,
)
from .pulse_engine import Envelope

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_GRID_POINTS = 2000
_THETA_TOLERANCE = 1e-9
_MIN_PEAK_SAMPLES = 10


@dataclass(frozen=True)
class ArrivalEstimate:
    """Where a pulse arrives: center/width of |E|^2, in grid time units.

    ``amplitude`` is the peak intensity; ``residual_rms`` is the rms misfit
    of the model against the peak-normalized intensity (0 for the centroid
    method); ``method`` is "centroid" or "gaussian_fit".
    """

    center: float
    width: float
    amplitude: float
    residual_rms: float
    method: str


def centroid(envelope: Envelope) -> ArrivalEstimate:
    """First/second intensity moments by trapezoidal quadrature."""
    y = np.abs(envelope.samples) ** 2
    dt = envelope.grid.dt
    total = float(np.trapezoid(y, dx=dt))
    if not np.isfinite(total) or total <= 0.0:
        raise ParameterError("envelope carries no energy; no arrival to locate")
    t = envelope.times
    mean = float(np.trapezoid(t * y, dx=dt) / total)
    var = float(np.trapezoid((t - mean) ** 2 * y, dx=dt) / total)
    return ArrivalEstimate(
        center=mean,
        width=math.sqrt(max(var, 0.0)),
        amplitude=float(y.max()),
        residual_rms=0.0,
        method="centroid",
    )


def fit_gaussian(envelope: Envelope, max_iter: int = 100) -> ArrivalEstimate:
    """Least-squares Gaussian fit to the intensity profile.

    Model a exp(-(t-mu)^2/(2 w^2)), seeded from the centroid moments and
    solved in moment-normalized coordinates by Levenberg-Marquardt with an
    analytic Jacobian.  Requires at least 10 samples above half maximum (else
    the grid undersamples the peak).  On solver failure raises FitFailureError
    carrying the centroid estimate as ``fallback``.
    """
    seed = centroid(envelope)
    y = np.abs(envelope.samples) ** 2
    ymax = float(y.max())
    if np.count_nonzero(y >= 0.5 * ymax) < _MIN_PEAK_SAMPLES:
        raise ParameterError(
            f"fewer than {_MIN_PEAK_SAMPLES} samples above half maximum; "
            "the grid undersamples the peak"
        )
    if seed.width <= 0.0:
        raise ParameterError("intensity profile has zero width; cannot fit")
    tau = (envelope.times - seed.center) / seed.width
    yn = y / ymax

    def residual(p):
        a, m, s = p
        return a * np.exp(-((tau - m) ** 2) / (2 * s * s)) - yn

    def jacobian(p):
        a, m, s = p
        u = tau - m
        e = np.exp(-(u**2) / (2 * s * s))
        return np.stack([e, a * e * u / (s * s), a * e * u**2 / (s**3)], axis=1)

    result = least_squares(
        residual,
        [1.0, 0.0, 1.0],
        jac=jacobian,
        method="lm",
        xtol=1e-12,
        ftol=1e-12,
        gtol=1e-12,
        max_nfev=max_iter,
    )
    if result.status <= 0 or not np.all(np.isfinite(result.x)):
        raise FitFailureError(
            f"Gaussian fit did not converge (solver status {result.status}); "
            "centroid estimate attached as fallback",
            fallback=seed,
        )
    a, m, s = result.x
    return ArrivalEstimate(
        center=seed.center + m * seed.width,
        width=abs(s) * seed.width,
        amplitude=a * ymax,
        residual_rms=float(np.sqrt(np.mean(residual(result.x) ** 2))),
        method="gaussian_fit",
    )


def t_atom(transmission: float, gamma_prime: float) -> float:
    """Bare-line peak advance at intensity transmission T: -ln(T)/(2 gamma')."""
    check_transmission("transmission", transmission)
    check_positive("gamma_prime", gamma_prime)
    return -math.log(transmission) / (2 * gamma_prime)


def _advance_objective(theta: float, transmission: float) -> float:
    """2 gamma' t of the post-selected scheme at throughput ``transmission``."""
    s = math.sin(theta + math.pi / 4)
    if s <= 0.0:
        return -math.inf
    arg = 2 * s * s / transmission - 1.0
    if arg < 1.0:
        return -math.inf  # would need line gain (T~ > 1) to hit the target
    a_w = math.cos(theta) / (math.sqrt(2.0) * s)
    return a_w * math.log(arg)


def _golden_max(f, a: float, b: float, tol: float) -> tuple[float, float]:
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def t_wva(transmission: float, gamma_prime: float) -> tuple[float, float]:
    """Best post-selected advance at fixed end-to-end throughput.

    Returns (advance in seconds, optimal analyzer angle in radians).  The
    objective is scanned on a 2000-point grid over the feasible angles and
    the best cell is refined by golden-section search to 1e-9 rad.
    """
    check_transmission("transmission", transmission)
    check_positive("gamma_prime", gamma_prime)
    if transmission == 1.0:
        return 0.0, math.pi / 4
    root = math.asin(math.sqrt(transmission))
    lo = root - math.pi / 4
    hi = min(math.pi / 2, 3 * math.pi / 4 - root)

    def objective(theta):
        return _advance_objective(theta, transmission)

    grid = np.linspace(lo, hi, _GRID_POINTS)
    values = np.array([objective(th) for th in grid])
    k = int(np.argmax(values))
    best_theta, best_value = float(grid[k]), float(values[k])
    a = grid[max(k - 1, 0)]
    b = grid[min(k + 1, _GRID_POINTS - 1)]
    theta_g, value_g = _golden_max(objective, float(a), float(b), _THETA_TOLERANCE)
    if value_g > best_value:
        best_theta, best_value = theta_g, value_g
    if not math.isfinite(best_value) or best_value < 0.0:
        raise NumericalError(
            f"no feasible analyzer angle at transmission {transmission:g}"
        )
    return best_value / (2 * gamma_prime), best_theta


def crossover(gamma_prime: float) -> float:
    """Throughput where the post-selected advance stops beating the bare line.

    Bisects t_wva(T) - t_atom(T) in T to 1e-5; the root is independent of
    gamma'.  Tries [1e-3, 0.5] first, widening once to [1e-4, 0.9].
    """
    check_positive("gamma_prime", gamma_prime)

    def gap(t):
        return t_wva(t, gamma_prime)[0] - t_atom(t, gamma_prime)

    for lo, hi in ((1e-3, 0.5), (1e-4, 0.9)):
        g_lo, g_hi = gap(lo), gap(hi)
        if g_lo > 0.0 >= g_hi:
            while hi - lo > 1e-5:
                mid = 0.5 * (lo + hi)
                if gap(mid) > 0.0:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)
    raise NumericalError(
        "advance gap does not change sign over transmission in [1e-4, 0.9]"
    )
