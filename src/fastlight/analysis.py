"""Arrival-time estimation and the loss budget of post-selected advancement.

Estimation: the arrival of an intensity envelope |E(t)|^2 is located either
by its centroid (exact for any profile, sensitive to tails) or by a Gaussian
fit (matches how peak positions are read off in practice; robust to
truncation, reports a residual as a distortion score).  The fit runs
MINPACK's Levenberg-Marquardt ``lmder`` through ``scipy.optimize.leastsq``.

Loss budget: a bare line that transmits T advances the peak by
t_atom = -ln(T) / (2 gamma').  Splitting the light into unequal H/V weights,
passing only H through the line, and post-selecting at analyzer angle theta
reaches the *same* end-to-end throughput T with a line transmission
T~ = T / (2 sin^2(theta+pi/4) - T), amplifying the (smaller) bare advance by
the weak value A_w(theta).  The best post-selected advance at fixed loss is

    t_wva(T) = max_theta  A_w(theta) ln(2 sin^2(theta+pi/4)/T - 1) / (2 gamma')

over the feasible angles sin^2(theta+pi/4) >= T, sin(theta)+cos(theta) > 0.
The maximum is bracketed on a 2000-cell angle grid and refined by
golden-section search.  A coarse pass over every 32nd cell and one window
around its winner, about 130 cells in all, pick the same cell that a scan of
all 2000 would.  t_wva beats t_atom at strong loss (small T) and loses at
mild loss; the two cross near T ~ 5-6 %, independent of gamma'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
_COARSE_STRIDE = 32
_COARSE = np.append(np.arange(0, _GRID_POINTS - 1, _COARSE_STRIDE), _GRID_POINTS - 1)
_THETA_TOLERANCE = 1e-9
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


def fit_gaussian(envelope: Envelope) -> ArrivalEstimate:
    """Least-squares Gaussian fit to the intensity profile.

    Model a exp(-(t-mu)^2/(2 w^2)), seeded from the centroid moments and
    solved in moment-normalized coordinates by MINPACK's Levenberg-Marquardt
    ``lmder`` (through ``scipy.optimize.leastsq``) with an analytic Jacobian,
    at most 100 residual evaluations.  Requires at least 10 samples above
    half maximum (else the grid undersamples the peak).  On solver failure
    raises FitFailureError carrying the centroid estimate as ``fallback``.
    """
    from scipy.optimize import leastsq  # imported here: no other command needs scipy

    seed = centroid(envelope)
    y = envelope.intensity
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
    # The model's terms are kept for the last point evaluated: lmder asks for
    # the Jacobian at the point it has just accepted.  They are keyed on the
    # exact parameter bits, so a call at any other point recomputes them.
    cache = {}

    def terms(p):
        key = p.tobytes()
        if key not in cache:
            a, m, s = p
            u = tau - m
            u2 = u**2
            e = np.exp(-u2 / (2 * s * s))
            cache.clear()
            cache[key] = (s, u, u2, e, a * e)
        return cache[key]

    def residual(p):
        return terms(p)[4] - yn

    def jacobian(p):  # one row per parameter: leastsq's col_deriv layout
        s, u, u2, e, ae = terms(p)
        return np.array([e, ae * u / (s * s), ae * u2 / (s**3)])

    x, _, info, _, status = leastsq(
        residual,
        [1.0, 0.0, 1.0],
        Dfun=jacobian,
        col_deriv=True,
        full_output=True,
        ftol=1e-12,
        xtol=1e-12,
        gtol=1e-12,
        maxfev=_MAX_EVALUATIONS,
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
        residual_rms=float(np.sqrt(np.mean(info["fvec"] ** 2))),
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


def _grid(transmission: float) -> np.ndarray:
    """The 2000 angles ``t_wva`` chooses from: the feasible interval's ends
    and evenly spaced cells between them."""
    root = math.asin(math.sqrt(transmission))
    lo = root - math.pi / 4
    hi = min(math.pi / 2, 3 * math.pi / 4 - root)
    return np.linspace(lo, hi, _GRID_POINTS)


def _cells(theta: np.ndarray, transmission: float) -> np.ndarray:
    """``_advance_objective`` on an array of angles.

    The same operations in the same order as the scalar objective;
    infeasible cells are masked before the log and read -inf.
    """
    s = np.sin(theta + math.pi / 4)
    arg = 2 * s * s / transmission - 1.0
    feasible = (s > 0.0) & (arg >= 1.0)
    values = np.full(theta.shape, -math.inf)
    a_w = np.cos(theta[feasible]) / (math.sqrt(2.0) * s[feasible])
    values[feasible] = a_w * np.log(arg[feasible])
    return values


def _rounding_bound(transmission: float) -> float:
    """Bound on |cell value - exact objective| over the grid of ``t_wva``.

    With u = 2^-53, numpy's float64 sin, cos and log taken to err by at most
    4 ulp (numpy's own accuracy tests allow 1), and s = sin(theta + pi/4) >=
    sqrt(T) on the grid: the rounded sum theta + pi/4 (pi/4 itself included)
    is off by at most 3u absolute, so s errs by rho = 3u/sqrt(T) + 8u
    relative.  Then arg = 2 s^2/T - 1 >= 1 errs by at most (4 rho + 5u) arg,
    and so does ln(arg) absolutely, plus 8u ln(arg); A_w errs by rho + 11u
    relative, and the product by u.  With A_w <= 1/sqrt(2T) and ln(arg) <=
    L = ln(2/T - 1), a cell errs by at most

        (4 rho + 5u + 8u L + L (rho + 12u)) / sqrt(2T),

    and an infeasible cell (computed arg < 1) has an exact objective below
    (4 rho + 5u) / sqrt(2T).  The result doubles this to cover second-order
    terms, which needs rho small: at rho > 1e-3 (T below about 1e-25) it
    returns inf.
    """
    u = 2.0**-53
    rho = 3 * u / math.sqrt(transmission) + 8 * u
    if rho > 1e-3:
        return math.inf
    log_max = math.log(2 / transmission - 1)
    return 2 * ((4 + log_max) * rho + (5 + 20 * log_max) * u) / math.sqrt(2 * transmission)


def _winning_cell(grid: np.ndarray, transmission: float) -> int:
    """``np.argmax(_cells(grid, transmission))``, found from ~6% of the cells.

    Every ``_COARSE_STRIDE``-th cell and the last one are evaluated first.
    With M their largest value and d = ``_rounding_bound``, every cell of
    the span from one coarse cell before the first coarse value >= M - 2d to
    one after the last is evaluated next, and the first maximum of that span
    is returned.  Usually that span is the two coarse intervals around the
    coarse winner; if d is infinite or M - 2d <= 0 it is the whole grid.

    The result equals the full-grid argmax because of three premises:

    - The exact objective f is unimodal on the grid.  In c = cot(theta +
      pi/4), which falls as theta rises, f = (1 + c) h(c) / 2 with h =
      ln(2/z - 1), z = T (1 + c^2) <= 1.  h is even and falls in |c|, so f
      rises on c <= 0.  For c > 0, (ln f)' = (1 - psi) / (1 + c) with psi =
      4 m(c) / ((2 - z) h), m = c (1 + c) / (1 + c^2) <= (1 + sqrt 2) / 2.
      psi(0) = 0, psi -> inf at h = 0, and psi rises wherever psi >= 1:
      (2 - z) h falls in c, and m rises up to c = 1 + sqrt 2.  Beyond it
      psi >= 1 forces h <= 4m < 2c, so (ln psi)' >= m'/m + 2c/((1 + c^2) h)
      > m'/m + 1/(1 + c^2) > 0.
      So psi crosses 1 once, and f rises then falls, for every T in (0, 1);
      it stays monotone just past the feasible ends, where rounding can put
      the first and last cells.
    - numpy gives a cell the same bits in any subset as in the full grid
      (``_cells`` applies only elementwise operations).
    - Every computed value v is within d of f, and f <= d where v = -inf.

    Take M - 2d > 0, the full-grid winner k and the coarse interval [a, b]
    holding it, so v_k >= M.  If f is monotone on [a, b], some endpoint has
    f >= f_k >= M - d.  Otherwise f peaks inside [a, b], so a or b holds the
    coarse maximum of f, which is at least M - d.  Either way that endpoint
    has f > d, so a finite v >= M - 2d, and the span holds k.
    """
    first, last = 0, _GRID_POINTS - 1
    bound = _rounding_bound(transmission)
    if bound < math.inf:
        coarse = _cells(grid[_COARSE], transmission)
        floor = coarse.max() - 2 * bound
        if floor > 0.0:
            near = np.flatnonzero(coarse >= floor)
            first = int(_COARSE[max(near[0] - 1, 0)])
            last = int(_COARSE[min(near[-1] + 1, _COARSE.size - 1)])
    return first + int(np.argmax(_cells(grid[first : last + 1], transmission)))


def t_wva(transmission: float, gamma_prime: float) -> tuple[float, float]:
    """Best post-selected advance at fixed end-to-end throughput.

    Returns (advance in seconds, optimal analyzer angle in radians).  The
    winning cell of a 2000-point grid over the feasible angles is found by
    ``_winning_cell`` from about 130 vectorised evaluations, and it is read
    again and refined by golden-section search to 1e-9 rad with the scalar
    ``_advance_objective``.  numpy's sin and log can differ from math's by an
    ulp in a cell, so only the choice of the winning cell depends on numpy;
    it matched a scalar scan on 3006 transmissions in [1e-4, 0.999].
    """
    check_transmission("transmission", transmission)
    check_positive("gamma_prime", gamma_prime)
    if transmission == 1.0:
        return 0.0, math.pi / 4

    def objective(theta):
        return _advance_objective(theta, transmission)

    grid = _grid(transmission)
    k = _winning_cell(grid, transmission)
    best_theta = float(grid[k])
    best_value = objective(best_theta)
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
