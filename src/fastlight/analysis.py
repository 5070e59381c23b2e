"""Arrival-time estimation and the loss budget of post-selected advancement.

Estimation: the arrival of an intensity envelope |E(t)|^2 is located either
by its centroid (exact for any profile, sensitive to tails) or by a Gaussian
fit (matches how peak positions are read off in practice; robust to
truncation, reports a residual as a distortion score).  The fit calls
MINPACK's Levenberg-Marquardt ``lmder`` as ``scipy.optimize.leastsq`` does,
from scipy's extension ``scipy.optimize._minpack`` alone (``_lmder``): it
loads in under a millisecond, its first call imports scipy's small callback
module (about 20 ms), and neither starts a thread, where ``import
scipy.optimize`` takes about 0.55 s and loads scipy.linalg.

Loss budget: a bare line that transmits T advances the peak by
t_atom = -ln(T) / (2 gamma').  Splitting the light into unequal H/V weights,
passing only H through the line, and post-selecting at analyzer angle theta
reaches the *same* end-to-end throughput T with a line transmission
T~ = T / (2 sin^2(theta+pi/4) - T), amplifying the (smaller) bare advance by
the weak value A_w(theta) (Aharonov, Albert and Vaidman, PRL 60, 1351
(1988)).  The best post-selected advance at fixed loss is

    t_wva(T) = max_theta  A_w(theta) ln(2 sin^2(theta+pi/4)/T - 1) / (2 gamma')

over the feasible angles sin^2(theta+pi/4) >= T, sin(theta)+cos(theta) > 0.
In c = cot(theta + pi/4), which falls as theta rises, A_w = (1 + c)/2 and
the objective is f = (1 + c) h / 2, with h = ln(2/z - 1) and z = T (1 +
c^2) <= 1.  f is unimodal: h is even and falls in |c|, so f rises on c <=
0.  For c > 0, (ln f)' = (1 - psi) / (1 + c) with psi = 4 m / ((2 - z) h)
and m = c (1 + c) / (1 + c^2) <= (1 + sqrt 2) / 2.  psi(0) = 0, psi -> inf
at h = 0, and psi rises wherever psi >= 1: (2 - z) h falls in c, and m
rises up to c = 1 + sqrt 2.  Beyond it psi >= 1 forces h <= 4m < 2c, so
(ln psi)' >= m'/m + 2c/((1 + c^2) h) > m'/m + 1/(1 + c^2) > 0.  So for T in
(0, 1) the optimum is the one sign change of

    G(c) = (2 - z) h - 4 c (1 + c) / (1 + c^2)

on [0, sqrt((1 - T)/T)], where G(0) > 0 > G(c_max); f' has G's sign.
t_wva beats t_atom at strong loss (small T) and loses at mild loss; the two
cross near T ~ 5-6 %, independent of gamma'.  ``crossover`` finds that
throughput as the root of f*(T) + ln T and returns it as a plain float, the
same at every gamma'; ``t_wva`` and ``t_atom`` at it give the advances and
the angle there.  Everything runs in normalized units, 2 gamma' t; gamma'
enters only when an advance is turned into seconds.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    FitFailureError,
    ParameterError,
    check_positive,
    check_transmission,
)
from .pulse_engine import Envelope, _trapezoid

_NEWTON_STEPS = 6  # Newton steps in c per t_wva row
_CROSSOVER_START = 0.05  # first T of crossover's Newton steps
_CROSSOVER_STEPS = 5
_MIN_PEAK_SAMPLES = 10
_CONVERGED = (1, 2, 3, 4)  # MINPACK's success codes; 0 and 5-8 are failures
_MAX_EVALUATIONS = 100  # residual evaluations per Gaussian fit


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
    y = envelope.intensity
    dt = envelope.grid.dt
    total = envelope.energy()
    if not np.isfinite(total) or total <= 0.0:
        raise ParameterError("envelope carries no energy; no arrival to locate")
    t = envelope.times
    mean = _trapezoid(t * y, dt) / total
    var = _trapezoid((t - mean) ** 2 * y, dt) / total
    return ArrivalEstimate(
        center=mean,
        width=math.sqrt(max(var, 0.0)),
        amplitude=float(y.max()),
        residual_rms=0.0,
        method="centroid",
    )


@functools.cache
def _lmder():
    """MINPACK's ``lmder`` from scipy's extension ``scipy.optimize._minpack``,
    loaded once per process without ``import scipy.optimize``: the module in
    ``sys.modules`` if there is one, else the extension in scipy's
    ``optimize`` directory, registered so that scipy's own import shares it."""
    name = "scipy.optimize._minpack"
    if name not in sys.modules:
        scipy = importlib.util.find_spec("scipy")
        packages = scipy.submodule_search_locations if scipy else []
        where = [os.path.join(package, "optimize") for package in packages]
        spec = importlib.machinery.PathFinder.find_spec(name, where)
        if spec is None:
            raise ImportError(f"the Gaussian fit needs {name}, not found in {where}", name=name)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return sys.modules[name]._lmder


def fit_gaussian(envelope: Envelope) -> ArrivalEstimate:
    """Least-squares Gaussian fit to the intensity profile.

    Model a exp(-(t-mu)^2/(2 w^2)), seeded from the centroid moments and
    solved in moment-normalized coordinates by MINPACK's Levenberg-Marquardt
    ``lmder`` with an analytic Jacobian, at most 100 residual evaluations,
    called with the arguments ``scipy.optimize.leastsq`` passes it, so the
    fit has leastsq's bits.  Requires at least 10 samples above half maximum
    (else the grid undersamples the peak).  On solver failure raises
    FitFailureError carrying the centroid estimate as ``fallback``.
    """
    seed = centroid(envelope)
    y = envelope.intensity
    ymax = seed.amplitude
    if np.count_nonzero(y >= 0.5 * ymax) < _MIN_PEAK_SAMPLES:
        raise ParameterError(
            f"fewer than {_MIN_PEAK_SAMPLES} samples above half maximum; "
            "the grid undersamples the peak"
        )
    if seed.width <= 0.0:
        raise ParameterError("intensity profile has zero width; cannot fit")
    tau = envelope.times - seed.center
    tau /= seed.width
    yn = y / ymax
    # Work arrays, allocated once per fit and refilled in place: the model's
    # terms u = tau - m, u^2, e and a e, keyed on the exact parameter bits of
    # the point they hold (lmder asks for each Jacobian, and at times a
    # residual, at the point it has just evaluated), and the Jacobian.  e
    # stays outside the read-only Jacobian, which every call returns, so a
    # trial point's residual leaves it whole.  Each residual is a new array:
    # lmder keeps the first as its own fvec and copies later ones into it, so
    # a reused buffer would overwrite it.
    u, u2, e, ae = np.empty((4, tau.size))
    jac = np.empty((3, tau.size))
    held = [None]  # the parameter bits of the terms

    def terms(p):
        key = p.tobytes()
        if held[0] != key:
            a, m, s = p
            np.subtract(tau, m, out=u)
            np.square(u, out=u2)
            np.divide(u2, -(2 * s * s), out=e)  # RN is odd: -(u2 / x) bit for bit
            np.exp(e, out=e)
            np.multiply(a, e, out=ae)
            held[0] = key

    def residual(p):
        terms(p)
        return ae - yn

    def jacobian(p):  # one row per parameter: lmder's col_deriv layout
        terms(p)
        s = p[2]
        jac.flags.writeable = True
        jac[0] = e
        np.divide(np.multiply(ae, u, out=jac[1]), s * s, out=jac[1])
        np.divide(np.multiply(ae, u2, out=jac[2]), s**3, out=jac[2])
        jac.flags.writeable = False
        return jac

    # fcn, Dfun, x0, args, full_output, col_deriv, ftol, xtol, gtol, maxfev, factor, diag
    x, info, status = _lmder()(
        residual, jacobian, np.array([1.0, 0.0, 1.0]), (), 1, 1,
        1e-12, 1e-12, 1e-12, _MAX_EVALUATIONS, 100.0, None,
    )
    if status not in _CONVERGED or not np.all(np.isfinite(x)):
        raise FitFailureError(
            f"Gaussian fit did not converge (MINPACK status {status}); "
            "centroid estimate attached as fallback",
            fallback=seed,
        )
    a, m, s = x
    return ArrivalEstimate(
        center=seed.center + m * seed.width,
        width=abs(s) * seed.width,
        amplitude=a * ymax,
        residual_rms=_rms(info["fvec"]),
        method="gaussian_fit",
    )


def _rms(r: np.ndarray) -> float:
    """``float(np.sqrt(np.mean(r ** 2)))`` bit for bit, without np.mean's set-up:
    numpy's pairwise sum of the squares over the count, and a rounded root."""
    return math.sqrt(np.add.reduce(np.square(r)) / r.size)


def t_atom(transmission: float, gamma_prime: float) -> float:
    """Bare-line peak advance at intensity transmission T: -ln(T)/(2 gamma')."""
    check_transmission("transmission", transmission)
    check_positive("gamma_prime", gamma_prime)
    return _seconds(0.0 - math.log(transmission), gamma_prime)  # +0.0 at T = 1


def _seconds(normalized: float, gamma_prime: float) -> float:
    """t from 2 gamma' t; a gamma' that takes a nonzero t out of float range is refused."""
    advance = normalized / (2 * float(gamma_prime))  # a numpy scalar warns on overflow
    if normalized and not 0.0 < advance < math.inf:
        raise ParameterError(
            f"gamma_prime: {float(gamma_prime)!r} rad/s puts the advance out of float range"
        )
    return advance


def _optimum(t) -> tuple:
    """Per normal transmission T in (0, 1]: the best normalized advance
    2 gamma' t_wva, its angle theta and its c = cot(theta + pi/4).

    Newton steps on G(c) (module docstring) start from c = sqrt(0.2/T) (1 -
    T), which is near the optimum at both ends of the range, and every step
    is kept inside [0, c_max], where G changes sign once.  Five steps reach
    the root to rounding at every T tried, from the smallest normal float
    to 1 - 2^-53; the sixth is spare.  Each row's arithmetic is elementwise,
    so a row gets the same bits in a table, alone, or as a numpy float64
    scalar, which runs the same ufuncs through numpy's scalar arithmetic.
    """
    r = 1.0 - t
    c_max = np.sqrt(r / t)
    c = np.sqrt(0.2 / t) * r

    def h(c):  # ln(2/z - 1), as a log1p that stays exact as T -> 1
        return np.log1p(2 * (r - t * (c * c)) / (t * (1.0 + c * c)))

    for _ in range(_NEWTON_STEPS):
        q = 1.0 + c * c
        z = t * q
        hc = h(c)
        g = (2.0 - z) * hc - 4 * (c * (1.0 + c) / q)
        slope = -2 * (t * c) * hc - 4 * (c + (1.0 + 2 * c - c * c) / q) / q
        c = np.minimum(np.maximum(c - g / slope, 0.0), c_max)
    return (1.0 + c) * h(c) / 2, np.arctan((1.0 - c) / (1.0 + c)), c


def t_wva(transmission, gamma_prime: float) -> tuple:
    """Best post-selected advance at fixed end-to-end throughput.

    Returns (advance in seconds, optimal analyzer angle in radians), as
    floats for a number, which is searched as the row of a one-row table,
    and as two float64 arrays for a 1-d sequence (anything else is
    refused).  A bad transmission raises what the first one raises alone.

    The optimum is the one root of G(c) = (2 - z) h - 4 c (1 + c)/(1 + c^2)
    on [0, sqrt((1 - T)/T)] (module docstring), and theta = atan2(1, c) -
    pi/4, formed as atan((1 - c)/(1 + c)).  Against a 50-digit maximum of
    the objective in theta, on 1000 random T from the smallest normal float
    to 1 - 1e-12, the advance was within 2.5 ulp and the angle within
    1.7e-16 rad.  T = 1 gives (0, pi/4).  A subnormal T is refused: (1 -
    T)/T would overflow.
    """
    scalar = not np.iterable(transmission)
    table = [transmission] if scalar else list(transmission)
    for t in table:
        if not (isinstance(t, float) or np.ndim(t) == 0):  # np.ndim costs ~1 us a row
            raise ParameterError("transmission: must be a number or a 1-d sequence of numbers")
        check_transmission("transmission", t)
        if t < sys.float_info.min:
            raise ParameterError(f"transmission: must be a normal float; got {float(t)!r}")
    check_positive("gamma_prime", gamma_prime)
    rows = np.array(table, dtype=float)
    # a number runs as its row's numpy scalar: the same bits at a fifth of the cost
    normalized, angles, _ = _optimum(rows[0] if scalar else rows)
    advances = [_seconds(x, gamma_prime) for x in np.ravel(normalized).tolist()]
    if scalar:
        return advances[0], float(angles)
    return np.array(advances), angles


def crossover(gamma_prime: float) -> float:
    """Throughput T* where the post-selected advance stops beating the bare line.

    The root in T of F(T) = f*(T) + ln T, where f* is the best normalized
    advance: Newton steps in T from T = 0.05, where F > 0, with slope
    dF/dT = (1 - (1 + c)/(2 - z))/T (by the envelope theorem, df*/dT is the
    objective's partial derivative at the optimal c).  Five steps reach the
    root to rounding: 0.056596043051963384, 1.1e-15 relative from a
    50-digit root.  The walk runs in normalized units on numpy float64
    scalars, with a table row's bits, so T* is the same float at every
    positive gamma'.  ``t_wva(T*, gamma_prime)`` gives the advance and the
    angle there, and refuses a gamma' that takes the advance out of float
    range.
    """
    check_positive("gamma_prime", gamma_prime)
    t = np.float64(_CROSSOVER_START)
    for _ in range(_CROSSOVER_STEPS):
        normalized, _, c = _optimum(t)
        z = t * (1.0 + c * c)
        t = t - (normalized + np.log(t)) * t / (1.0 - (1.0 + c) / (2.0 - z))
    return float(t)
