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
around its winner, about 130 cells per row, pick the same cell that a scan
of all 2000 would.  ``t_wva`` also takes a sequence of transmissions and
searches it with one coarse and one window evaluation per block of 64 rows.
t_wva beats t_atom at strong loss (small T) and loses at mild loss; the two
cross near T ~ 5-6 %, independent of gamma'.
"""

from __future__ import annotations

import math
import sys
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
_INDEX = np.arange(float(_GRID_POINTS))
_TABLE_ROWS = 64  # rows searched together: peak memory does not grow with the table
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
    # The model's terms, and its Jacobian once asked for, are kept for the
    # last point evaluated: lmder asks for the Jacobian at the point it has
    # just accepted, and leastsq checks both at x0 before lmder evaluates them
    # there.  They are keyed on the exact parameter bits, so a call at any
    # other point recomputes them.  The kept Jacobian is read-only: every
    # caller shares that one array.
    cache = {}

    def terms(p):
        key = p.tobytes()
        if key not in cache:
            cache.clear()  # free the last point's arrays before building these
            a, m, s = p
            u = tau - m
            u2 = u**2
            e = np.exp(-u2 / (2 * s * s))
            cache[key] = [s, u, u2, e, a * e, None]
        return cache[key]

    def residual(p):
        return terms(p)[4] - yn

    def jacobian(p):  # one row per parameter: leastsq's col_deriv layout
        kept = terms(p)
        if kept[5] is None:
            s, u, u2, e, ae, _ = kept
            kept[5] = np.array([e, ae * u / (s * s), ae * u2 / (s**3)])
            kept[5].flags.writeable = False
        return kept[5]

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
    return _seconds(-math.log(transmission), gamma_prime)


def _seconds(normalized: float, gamma_prime: float) -> float:
    """t from 2 gamma' t; a gamma' that takes a nonzero t out of float range is refused."""
    advance = normalized / (2 * gamma_prime)
    if normalized and not 0.0 < advance < math.inf:
        raise ParameterError(
            f"gamma_prime: {gamma_prime!r} rad/s puts the advance out of float range"
        )
    return advance


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


def _grid_ends(transmission: float) -> tuple[float, float]:
    """The feasible interval's ends, the first and last of the grid's angles."""
    root = math.asin(math.sqrt(transmission))
    return root - math.pi / 4, min(math.pi / 2, 3 * math.pi / 4 - root)


def _grid(transmission: float) -> np.ndarray:
    """The 2000 angles ``t_wva`` chooses from: the feasible interval's ends
    and evenly spaced cells between them.  The search forms only the cells
    it evaluates, with ``_angles``."""
    return np.linspace(*_grid_ends(transmission), _GRID_POINTS)


def _angles(index: np.ndarray, lo, step, hi) -> np.ndarray:
    """Cells ``index`` (ascending, along the last axis) of grids from ``lo``
    to ``hi``, with ``np.linspace``'s own arithmetic: index * step + lo,
    step = (hi - lo) / 1999, and the last cell is hi."""
    theta = index * step + lo
    if index[-1] == _GRID_POINTS - 1:
        theta[..., -1:] = hi
    return theta


def _cells(theta: np.ndarray, transmission) -> np.ndarray:
    """``_advance_objective`` on an array of grid angles.

    A feasible cell gets the same operations in the same order as the scalar
    objective; a cell whose arg is below 1 reads -inf.  On a grid theta +
    pi/4 >= 0, so s >= 0 and the objective's s <= 0 test adds nothing (s = 0
    gives arg = -1).  The two ``np.maximum`` calls change no feasible cell;
    they keep infeasible ones free of division by zero and of the log of a
    negative number.
    """
    s = np.sin(theta + math.pi / 4)
    arg = 2 * s * s / transmission - 1.0
    a_w = np.cos(theta) / (math.sqrt(2.0) * np.maximum(s, sys.float_info.min))
    return np.where(arg >= 1.0, a_w * np.log(np.maximum(arg, 1.0)), -math.inf)


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


def _winning_cells(transmissions: list) -> list:
    """Per transmission T, the winning cell k = ``np.argmax(_cells(_grid(T),
    T))`` and the cells k - 1 and k + 1 (clamped to the grid), as a tuple of
    floats.  About 130 cells per row are evaluated, in two ``_cells`` calls
    for all the rows given.

    Every ``_COARSE_STRIDE``-th cell and the last one are evaluated first,
    for each row whose d = ``_rounding_bound`` is finite.  With M a row's
    largest coarse value, every cell of the span from one coarse cell before
    the first coarse value >= M - 2d to one after the last is evaluated
    next, and the first maximum of that span is the row's winner.  Usually
    that span is the two coarse intervals around the coarse winner; if d is
    infinite or M - 2d <= 0 it is the whole grid.  The spans are laid end to
    end in one flat array, so a whole-grid row widens no other row's span.

    The winner equals the full-grid argmax because of three premises:

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
      (``_angles`` and ``_cells`` apply only elementwise operations).
    - Every computed value v is within d of f, and f <= d where v = -inf.

    Take M - 2d > 0, the full-grid winner k and the coarse interval [a, b]
    holding it, so v_k >= M.  If f is monotone on [a, b], some endpoint has
    f >= f_k >= M - d.  Otherwise f peaks inside [a, b], so a or b holds the
    coarse maximum of f, which is at least M - d.  Either way that endpoint
    has f > d, so a finite v >= M - 2d, and the span holds k.  The span's
    first and last cells read below M - 2d unless they are the grid's ends,
    so k - 1 and k + 1 lie in the span too.
    """
    rows = []  # lo, step, hi and 2d of each transmission's grid
    for t in transmissions:
        lo, hi = _grid_ends(t)
        rows.append((lo, (hi - lo) / (_GRID_POINTS - 1), hi, 2 * _rounding_bound(t)))
    # lo, step, hi, 2d and T of the rows whose d is finite
    p = np.array([(*row, t) for row, t in zip(rows, transmissions) if row[3] < math.inf])
    p = p.reshape(-1, 5)
    coarse = iter(_cells(_angles(_COARSE, p[:, 0:1], p[:, 1:2], p[:, 2:3]), p[:, 4:5]))
    spans, pieces = [], []
    for lo, step, hi, margin in rows:
        a, b = 0, _GRID_POINTS - 1
        if margin < math.inf:
            values = next(coarse)
            floor = values[values.argmax()] - margin
            if floor > 0.0:  # coarse cell j is min(j * stride, 1999)
                near = values >= floor
                a = _COARSE_STRIDE * max(int(near.argmax()) - 1, 0)
                b = min(_COARSE_STRIDE * (_COARSE.size - int(near[::-1].argmax())), b)
        spans.append((a, b + 1))
        pieces.append(_angles(_INDEX[a : b + 1], lo, step, hi))

    theta = np.concatenate(pieces)
    values = _cells(theta, np.repeat(transmissions, [b - a for a, b in spans]))
    cells, start = [], 0
    for a, b in spans:
        j = start + int(values[start : start + b - a].argmax())
        k = a + j - start
        cells.append(
            (theta.item(j), theta.item(j - (k > 0)), theta.item(j + (k < _GRID_POINTS - 1)))
        )
        start += b - a
    return cells


def t_wva(transmission, gamma_prime: float) -> tuple:
    """Best post-selected advance at fixed end-to-end throughput.

    Returns (advance in seconds, optimal analyzer angle in radians).  Given
    a 1-d sequence of transmissions, returns the advances and the angles as
    two float64 arrays, with the same bits as one call per transmission; a
    bad transmission raises what the first one raises alone.  The winning
    cell of a 2000-point grid over the feasible angles is found by
    ``_winning_cells`` from about 130 vectorised evaluations per row, and it
    is read again and refined by golden-section search to 1e-9 rad with the
    scalar ``_advance_objective``.  numpy's sin and log can differ from
    math's by an ulp in a cell, so only the choice of the winning cell
    depends on numpy; it matched a scalar scan on 3006 transmissions in
    [1e-4, 0.999].  The grid is built in theta, and theta + pi/4 cancels
    near the dark port, so the advance loses digits as T falls: ``cli``
    warns below the transmission where they reach the printed 13.
    """
    scalar = isinstance(transmission, float) or np.ndim(transmission) == 0
    table = [transmission] if scalar else list(transmission)
    for t in table:
        check_transmission("transmission", t)
        if t < sys.float_info.min:  # 2/T would overflow on the grid
            raise ParameterError(f"transmission: must be a normal float; got {float(t)!r}")
    check_positive("gamma_prime", gamma_prime)
    table = [float(t) for t in table]
    advances, angles = [], []
    for i in range(0, len(table), _TABLE_ROWS):
        block = table[i : i + _TABLE_ROWS]
        for t, (cell, a, b) in zip(block, _winning_cells(block)):

            def objective(theta):
                return _advance_objective(theta, t)

            best_theta, best_value = cell, objective(cell)
            theta_g, value_g = _golden_max(objective, a, b, _THETA_TOLERANCE)
            if value_g > best_value:
                best_theta, best_value = theta_g, value_g
            if not math.isfinite(best_value) or best_value < 0.0:
                raise NumericalError(f"no feasible analyzer angle at transmission {t:g}")
            advances.append(_seconds(best_value, gamma_prime))
            angles.append(best_theta)
    if scalar:
        return advances[0], angles[0]
    return np.array(advances), np.array(angles)


def crossover(gamma_prime: float) -> float:
    """Throughput where the post-selected advance stops beating the bare line.

    Bisects t_wva(T) - t_atom(T) in T over [1e-3, 0.5] to 1e-5.  Both
    advances scale as 1/gamma', so the gap's sign, and the root, do not
    depend on gamma'; a gamma' so extreme that the advances would round to
    0 or overflow raises ParameterError from ``t_wva``.
    """
    check_positive("gamma_prime", gamma_prime)

    def gap(t):
        return t_wva(t, gamma_prime)[0] - t_atom(t, gamma_prime)

    lo, hi = 1e-3, 0.5
    if not gap(lo) > 0.0 >= gap(hi):
        raise NumericalError(
            "advance gap does not change sign over transmission in [1e-3, 0.5]"
        )
    while hi - lo > 1e-5:
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
