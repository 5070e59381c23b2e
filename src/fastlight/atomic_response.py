"""Susceptibility and group response of a power-broadened two-photon line.

A strong coupling field and a weak probe drive a three-level lambda medium far
from one-photon resonance (one-photon detuning Delta much larger than the
optical decoherence rate Gamma).  The probe susceptibility is

    chi(delta) = beta (delta - i gamma)
                 / [ (delta - i gamma)(Delta - i Gamma/2) - |Omega_c|^2 / 4 ]

with delta the two-photon detuning, gamma the ground-state decoherence rate,
Omega_c the coupling Rabi frequency, and beta = N |mu|^2 / (hbar epsilon_0)
the density-dipole coupling scalar (rad/s).  Far off one-photon resonance the
line collapses to a displaced, power-broadened Lorentzian

    chi(delta') = beta (|Omega_c|^2 / 4 Delta^2)
                  (delta' + i gamma') / (delta'^2 + gamma'^2)

written against the detuning from the shifted line centre,
delta' = delta - delta_0, where

    delta_0 = |Omega_c|^2 Delta / (4 Delta^2 + Gamma^2)     (light shift)
    gamma'  = gamma + gamma_0
    gamma_0 = |Omega_c|^2 Gamma / (8 Delta^2 + 2 Gamma^2)   (power broadening).

At line centre the absorption line drags the group index away from unity by

    n_g - 1 = beta (|Omega_c|^2 / 8 Delta^2) omega / gamma'^2,

which over a cell of length L corresponds to a pulse-peak advance

    t0 = beta (L/c) (|Omega_c|^2 / 8 Delta^2) (omega / gamma'^2)

and a line-centre intensity transmission T = exp(-2 alpha L) = exp(-2 gamma' t0).
The detuning axis here is oriented so the dispersive slope at line centre is
positive; operationally the line *advances* the probe peak (it exits the cell
earlier by t0), which is what the pulse propagation module implements.

All quantities are SI: angular rates in rad/s, times in s, lengths in m.
"""

from __future__ import annotations

import contextlib
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ApproximationWarning, NumericalError, ParameterError
from .errors import check_grid, check_nonnegative, check_number, check_positive

C_LIGHT = 299792458.0  # speed of light in vacuum, m/s (exact SI value)

# Lorentzian-limit operations require the probe to be far off one-photon
# resonance; below the soft ratio they still run but warn.
_HARD_DETUNING_RATIO = 10.0
_SOFT_DETUNING_RATIO = 100.0

# KK consistency check: minimum half-span in units of gamma' and minimum
# number of samples for the residual to be meaningful.
_KK_MIN_HALF_SPAN = 40.0
_KK_MIN_POINTS = 4096
_KK_TAPER_FRACTION = 0.05
_KK_PAD_FACTOR = 4


@dataclass(frozen=True)
class MediumSpec:
    """Physical description of the driven medium and probe carrier.

    beta          density-dipole coupling scalar (rad/s), > 0: an absorbing line
    gamma         ground-state decoherence rate (rad/s)
    Gamma         excited-state decoherence rate (rad/s)
    omega_c_rabi  coupling Rabi frequency (rad/s)
    Delta         one-photon detuning (rad/s)
    length        propagation length (m); 0 is the vacuum limit
    omega0        probe carrier angular frequency (rad/s)
    """

    beta: float
    gamma: float
    Gamma: float
    omega_c_rabi: float
    Delta: float
    length: float
    omega0: float

    def __post_init__(self):
        for name in ("beta", "gamma", "Gamma", "omega0"):
            check_positive(name, getattr(self, name))
        for name in ("omega_c_rabi", "length"):
            check_nonnegative(name, getattr(self, name))
        for name in ("omega_c_rabi", "Delta"):
            _check_square(name, getattr(self, name))
        _check_square("Gamma", self.Gamma, divides=True)  # so 8 Delta^2 + 2 Gamma^2 > 0
        _check_square("gamma' = gamma + power broadening", gamma_effective(self), divides=True)


@dataclass(frozen=True)
class ReducedLine:
    """Minimal description of the line as the pulse sees it.

    t0           pulse-peak advance accumulated at line centre (s), >= 0
    gamma_prime  power-broadened half-width gamma' (rad/s)
    """

    t0: float
    gamma_prime: float

    def __post_init__(self):
        check_nonnegative("t0", self.t0)
        check_positive("gamma_prime", self.gamma_prime)


def _check_square(name: str, value: float, divides: bool = False) -> None:
    """Raise ParameterError naming ``name`` where ``value**2`` overflows or, for a
    square that ``divides``, where it underflows below the normal floats."""
    check_number(name, value)
    if not abs(value) < 2.0**512:  # x**2 is finite exactly below 2^512
        raise ParameterError(f"{name}: {value:.3e} rad/s has no finite square (limit 2^512)")
    if divides and not abs(value) >= 2.0**-511:  # and a normal float from 2^-511 up
        raise ParameterError(f"{name}: {value:.3e} rad/s has a square that underflows "
                             "(limit 2^-511)")


def light_shift(spec: MediumSpec) -> float:
    """Displacement delta_0 of the two-photon line centre (rad/s)."""
    return spec.omega_c_rabi**2 * spec.Delta / (4 * spec.Delta**2 + spec.Gamma**2)


def power_broadening(spec: MediumSpec) -> float:
    """Coupling-induced broadening gamma_0 of the two-photon line (rad/s)."""
    return spec.omega_c_rabi**2 * spec.Gamma / (8 * spec.Delta**2 + 2 * spec.Gamma**2)


def gamma_effective(spec: MediumSpec) -> float:
    """Power-broadened half-width gamma' = gamma + gamma_0 (rad/s)."""
    return spec.gamma + power_broadening(spec)


def _require_far_detuned(spec: MediumSpec, what: str) -> None:
    ratio = abs(spec.Delta) / spec.Gamma
    if ratio < _HARD_DETUNING_RATIO:
        raise ParameterError(
            f"{what} requires |Delta| >= {_HARD_DETUNING_RATIO:g}*Gamma; "
            f"got |Delta|/Gamma = {ratio:.3g}"
        )
    if ratio < _SOFT_DETUNING_RATIO:  # one text, one location: shown once per run
        warnings.warn(
            f"|Delta|/Gamma = {ratio:.3g} is below {_SOFT_DETUNING_RATIO:g}; "
            "the Lorentzian limit is marginal",
            ApproximationWarning,
        )


@contextlib.contextmanager
def _in_float_range(message: str):
    """numpy's raise mode: NumericalError with ``message``, not inf, 0 or nan behind a
    warning, where a product or square overflows, a divisor underflows to 0 or x is inf."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except ArithmeticError:
        raise NumericalError(message) from None


@_in_float_range("line shape out of float range: |x| above ~1e154 or too strong a line")
def _lorentzian(strength, x, gp):
    """The line shape both chi and Phi share: strength (x + i gp)/(x^2 + gp^2)."""
    return strength * (x + 1j * gp) / (x**2 + gp**2)


@_in_float_range("line slope out of float range: |x| or gamma' above ~1e77, or gamma' below ~1e-81")
def _lorentzian_slope(strength, x, gp):
    """d/dx Re ``_lorentzian`` = strength (gp^2 - x^2)/(x^2 + gp^2)^2."""
    return strength * (gp**2 - x**2) / (x**2 + gp**2) ** 2


def _as_given(given, out):
    """``out`` in ``given``'s form: an array as it is, a number's row as a scalar of its kind."""
    if np.ndim(given):
        return out
    return out[0] if isinstance(given, (np.generic, np.ndarray)) else out[0].item()


def _chi_strength(spec: MediumSpec) -> float:
    """S = beta |Omega_c|^2 / (4 Delta^2), the strength of chi's Lorentzian."""
    return spec.beta * spec.omega_c_rabi**2 / (4 * spec.Delta**2)


def chi_lorentzian(delta_prime, spec: MediumSpec):
    """Far-detuned Lorentzian susceptibility at detuning from line centre.

    chi = beta (|Omega_c|^2/4 Delta^2) (delta' + i gamma')/(delta'^2 + gamma'^2).
    Requires |Delta| >= 10 Gamma (hard error); warns below 100 Gamma.
    """
    _require_far_detuned(spec, "chi_lorentzian")
    x = check_grid("delta_prime", delta_prime)
    return _as_given(delta_prime, _lorentzian(_chi_strength(spec), x, gamma_effective(spec)))


def group_index(delta_prime, spec: MediumSpec):
    """Group index n_g = Re(n) + omega dRe(n)/d(delta') of n = 1 + chi/2, with dRe(n)/d(delta')
    half the slope of chi's Lorentzian: 1 + beta (|Omega_c|^2/8 Delta^2) omega/gamma'^2 at line
    centre.  ParameterError where |chi| >= 0.5, beyond which n = 1 + chi/2 is no linearization
    of sqrt(1 + chi); NumericalError if |delta'| or gamma' > ~1e77 or gamma' < ~1e-81."""
    _require_far_detuned(spec, "group_index")
    x = check_grid("delta_prime", delta_prime)
    strength, gp = _chi_strength(spec), gamma_effective(spec)
    slope = _lorentzian_slope(strength, x, gp)  # refuses what chi would overflow on
    chi = _lorentzian(strength, x, gp)
    if np.any(np.abs(chi) >= 0.5):
        raise ParameterError("group_index expects |chi| < 0.5; the n = 1 + chi/2 linearization "
                             f"is invalid (max |chi| = {float(np.max(np.abs(chi))):.3g})")
    return _as_given(delta_prime, 1.0 + chi.real / 2.0 + spec.omega0 / 2 * slope)


def group_advance(spec: MediumSpec) -> ReducedLine:
    """Reduce the medium to (t0, gamma') at line centre.

    t0 = (n_g - 1) L / c via the closed form; beta > 0 makes n_g - 1 >= 0,
    so the component seeing the line exits earlier by t0.
    """
    _require_far_detuned(spec, "group_advance")
    gp = gamma_effective(spec)
    ng_minus_1 = spec.beta * (spec.omega_c_rabi**2 / (8 * spec.Delta**2)) * spec.omega0 / gp**2
    t0 = ng_minus_1 * spec.length / C_LIGHT
    if not np.isfinite(t0):
        raise ParameterError(f"medium: the derived advance t0 is {t0} s, out of float range")
    return ReducedLine(t0=t0, gamma_prime=gp)


def absorption(spec: MediumSpec) -> float:
    """Line-centre intensity absorption coefficient alpha (1/m).

    alpha = (omega/c) Im n(0) = (omega/c) beta |Omega_c|^2 / (8 Delta^2 gamma').
    """
    _require_far_detuned(spec, "absorption")
    gp = gamma_effective(spec)
    return (spec.omega0 / C_LIGHT) * spec.beta * spec.omega_c_rabi**2 / (8 * spec.Delta**2 * gp)


def transmission(line: ReducedLine) -> float:
    """Line-centre intensity transmission T = exp(-2 gamma' t0).

    For a line derived from a MediumSpec this must match exp(-2 alpha L)
    computed independently via ``absorption`` to 1e-12 relative.  gamma' t0
    is formed first, so that an overflow of 2 gamma' alone never reads as an
    opaque line.
    """
    return float(np.exp(-2.0 * (line.gamma_prime * line.t0)))


def transfer_exponent(om, line: ReducedLine):
    """Exponent Phi of the line's transfer function H(Om) = exp(i Phi(Om)).

    Phi = t0 gamma'^2 (Om + i gamma') / (Om^2 + gamma'^2) at offset Om
    (rad/s) from line centre, in the e^{+i Om t} basis.  Re Phi is the
    spectral phase, Im Phi the field-loss exponent (gamma' t0 at centre, so
    the intensity transmission there is exp(-2 gamma' t0)).
    """
    _check_square("gamma_prime", line.gamma_prime, divides=True)  # the loss budget never squares it
    out = _lorentzian(line.t0 * line.gamma_prime**2, check_grid("om", om), line.gamma_prime)
    return _as_given(om, out)


def phase_slope(om, line: ReducedLine):
    """Group advance dRe(Phi)/dOm (s) at offset Om from line centre.

    Equals ``line.t0`` at centre and changes sign at |Om| = gamma'.
    """
    _check_square("gamma_prime", line.gamma_prime, divides=True)
    out = _lorentzian_slope(line.t0 * line.gamma_prime**2, check_grid("om", om), line.gamma_prime)
    return _as_given(om, out)


def _taper_ends(values: np.ndarray, fraction: float) -> np.ndarray:
    """Raised-cosine taper to zero over the outer ``fraction`` of each end."""
    out = values.astype(float).copy()
    edge = int(round(fraction * out.size))
    if edge >= 2:
        ramp = 0.5 * (1 - np.cos(np.pi * np.arange(edge) / edge))
        out[:edge] *= ramp
        out[-edge:] *= ramp[::-1]
    return out


def _hilbert_imag(x: np.ndarray, nfft: int) -> np.ndarray:
    """Im of the analytic signal of real ``x`` zero padded to ``nfft`` points.

    The recipe of ``scipy.signal.hilbert(x, N=nfft)``, with the same bits: the
    spectrum of a real input comes from a real transform (as in scipy's
    pocketfft; a complex ``np.fft.fft`` differs in the last digit), positive
    frequencies are doubled, and the negative half is left at zero.
    """
    half = np.fft.rfft(x, nfft)
    half[1 : (nfft + 1) // 2] *= 2.0
    return np.imag(np.fft.ifft(half, nfft))


def kramers_kronig_residual(delta_grid: np.ndarray, chi_values: np.ndarray) -> float:
    """Causality self-consistency of a sampled response function.

    Computes the discrete Hilbert transform of Im(chi) (end-point tapered,
    then zero padded to 4x length so circular images sit far outside the
    window) and returns

        max |Re(chi) - HT[Im(chi)]| / max |Re(chi)|

    over the central half of the grid.  The grid must be uniform and
    symmetric about zero.  For a causal line the residual is small and
    shrinks as the grid span grows; Im(chi) == 0 with nonzero Re(chi) yields
    a residual of 1 (maximal inconsistency flag).
    """
    delta_grid = check_grid("delta_grid", delta_grid)
    chi_values = np.asarray(chi_values, dtype=complex)
    n = delta_grid.size
    if chi_values.size != n:
        raise ParameterError("delta_grid and chi_values must have equal length")
    if n < 16:
        raise ParameterError("grid too coarse for a Hilbert-transform check")
    steps = np.diff(delta_grid)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise ParameterError("detuning grid must be uniformly spaced")
    if abs(delta_grid[0] + delta_grid[-1]) > 1e-9 * abs(delta_grid[-1] - delta_grid[0]):
        raise ParameterError("detuning grid must be symmetric about zero")

    im = _taper_ends(chi_values.imag, _KK_TAPER_FRACTION)
    nfft = 1 << int(np.ceil(np.log2(_KK_PAD_FACTOR * n)))
    ht = _hilbert_imag(im, nfft)[:n]

    lo, hi = n // 4, 3 * n // 4
    re = chi_values.real[lo:hi]
    scale = np.max(np.abs(re))
    if scale == 0.0:
        return 0.0 if np.max(np.abs(ht[lo:hi])) == 0.0 else np.inf
    return float(np.max(np.abs(re - ht[lo:hi])) / scale)


def kk_check(spec: MediumSpec, delta_prime_grid: np.ndarray) -> float:
    """KK residual of the Lorentzian line sampled on ``delta_prime_grid``.

    The grid must span at least 40 gamma' on each side with at least 4096
    points (ParameterError otherwise); the Lorentzian tails fall off
    slowly, so truncation dominates the residual and widening the span
    improves it monotonically.
    """
    grid = check_grid("delta_prime_grid", delta_prime_grid)
    gp = gamma_effective(spec)
    if grid.size < _KK_MIN_POINTS:
        raise ParameterError(f"KK check needs >= {_KK_MIN_POINTS} points; got {grid.size}")
    if -grid[0] < _KK_MIN_HALF_SPAN * gp or grid[-1] < _KK_MIN_HALF_SPAN * gp:
        raise ParameterError(f"KK check needs >= {_KK_MIN_HALF_SPAN:g} gamma' of span on each side")
    return kramers_kronig_residual(grid, chi_lorentzian(grid, spec))
