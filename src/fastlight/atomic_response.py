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

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ApproximationWarning, NumericalError, ParameterError, check_positive

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
        check_positive("beta", self.beta)
        check_positive("gamma", self.gamma)
        check_positive("Gamma", self.Gamma)
        if not (self.omega_c_rabi >= 0):
            raise ParameterError("omega_c_rabi: must be >= 0")
        if not np.isfinite(self.Delta):
            raise ParameterError("Delta: must be finite")
        if not (self.length >= 0):
            raise ParameterError("length: must be >= 0")
        check_positive("omega0", self.omega0)


@dataclass(frozen=True)
class ReducedLine:
    """Minimal description of the line as the pulse sees it.

    t0           pulse-peak advance accumulated at line centre (s), >= 0
    gamma_prime  power-broadened half-width gamma' (rad/s)
    """

    t0: float
    gamma_prime: float

    def __post_init__(self):
        if not (self.t0 >= 0) or not np.isfinite(self.t0):
            raise ParameterError("t0: must be finite and >= 0")
        check_positive("gamma_prime", self.gamma_prime)


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
    if ratio < _SOFT_DETUNING_RATIO:
        warnings.warn(
            f"{what}: |Delta|/Gamma = {ratio:.3g} is below "
            f"{_SOFT_DETUNING_RATIO:g}; the Lorentzian limit is marginal",
            ApproximationWarning,
            stacklevel=3,
        )


def chi_full(delta, spec: MediumSpec):
    """Exact steady-state susceptibility at two-photon detuning ``delta``.

    Accepts a scalar or array detuning (rad/s).  Raises NumericalError if
    the denominator falls below 1e-30 of the numerator anywhere on the input.
    """
    delta = np.asarray(delta, dtype=float)
    num = spec.beta * (delta - 1j * spec.gamma)
    den = (delta - 1j * spec.gamma) * (spec.Delta - 1j * spec.Gamma / 2) - spec.omega_c_rabi**2 / 4
    bad = np.abs(den) < 1e-30 * np.abs(num)
    if np.any(bad):
        raise NumericalError(
            "susceptibility denominator vanished (|den| < 1e-30 |num|) at "
            f"{int(np.count_nonzero(bad))} detuning(s)"
        )
    out = num / den
    return out if out.ndim else complex(out)


def background_susceptibility(spec: MediumSpec) -> complex:
    """Smooth one-photon wing beta / (Delta - i Gamma/2) underlying the line.

    The exact susceptibility splits identically into this constant plus a
    resonant pole:

        chi_full(delta) = beta/D + (beta Omega_c^2 / (4 D^2))
                          / (delta - i gamma - Omega_c^2/(4 D)),
        D = Delta - i Gamma/2.

    The background is a flat index offset and residual one-photon absorption;
    it carries no structure in delta, so it contributes nothing to the group
    response of the line.
    """
    return complex(spec.beta / (spec.Delta - 1j * spec.Gamma / 2))


def chi_resonant(delta, spec: MediumSpec):
    """Two-photon (Raman) feature: chi_full minus the smooth background.

    This is the part the Lorentzian limit approximates:
    chi_resonant(delta0 + delta') -> chi_lorentzian(delta') as Delta/Gamma
    grows.  The background itself is comparable to -- at the example scales,
    far larger than -- the feature, so comparisons against the Lorentzian
    form must use this function, not chi_full.
    """
    return chi_full(delta, spec) - background_susceptibility(spec)


def _chi_lorentzian_raw(delta_prime, spec: MediumSpec):
    delta_prime = np.asarray(delta_prime, dtype=float)
    gp = gamma_effective(spec)
    scale = spec.beta * spec.omega_c_rabi**2 / (4 * spec.Delta**2)
    return scale * (delta_prime + 1j * gp) / (delta_prime**2 + gp**2)


def chi_lorentzian(delta_prime, spec: MediumSpec):
    """Far-detuned Lorentzian susceptibility at detuning from line centre.

    chi = beta (|Omega_c|^2/4 Delta^2) (delta' + i gamma')/(delta'^2 + gamma'^2).
    Requires |Delta| >= 10 Gamma (hard error); warns below 100 Gamma.
    """
    _require_far_detuned(spec, "chi_lorentzian")
    out = _chi_lorentzian_raw(delta_prime, spec)
    return out if out.ndim else complex(out)


def refractive_index(chi):
    """Weak-susceptibility refractive index n = 1 + chi/2.

    Valid only for |chi| < 0.5; beyond that the linearization of
    sqrt(1 + chi) is not trustworthy and an error is raised.
    """
    chi = np.asarray(chi, dtype=complex)
    if np.any(np.abs(chi) >= 0.5):
        raise ParameterError(
            "refractive_index expects |chi| < 0.5; the n = 1 + chi/2 "
            f"linearization is invalid (max |chi| = {float(np.max(np.abs(chi))):.3g})"
        )
    out = 1.0 + chi / 2.0
    return out if out.ndim else complex(out)


def group_index(delta_prime, spec: MediumSpec):
    """Group index n_g = Re(n) + omega * dRe(n)/d(delta') by central difference.

    The step is h = max(1e-4 * gamma', |delta'| * 1e-6) per point.  At line
    centre this reproduces the closed form 1 + beta (|Omega_c|^2/8 Delta^2)
    omega/gamma'^2 to much better than 1e-6 relative.
    """
    _require_far_detuned(spec, "group_index")
    delta_prime = np.asarray(delta_prime, dtype=float)
    gp = gamma_effective(spec)
    h = np.maximum(1e-4 * gp, np.abs(delta_prime) * 1e-6)
    if np.any(delta_prime + h == delta_prime):
        raise NumericalError(
            "finite-difference step underflowed (delta' + h == delta'); "
            "gamma' or delta' is out of floating-point range"
        )
    n_mid = np.real(refractive_index(_chi_lorentzian_raw(delta_prime, spec)))
    n_hi = np.real(refractive_index(_chi_lorentzian_raw(delta_prime + h, spec)))
    n_lo = np.real(refractive_index(_chi_lorentzian_raw(delta_prime - h, spec)))
    out = n_mid + spec.omega0 * (n_hi - n_lo) / (2 * h)
    return out if out.ndim else float(out)


def group_advance(spec: MediumSpec) -> ReducedLine:
    """Reduce the medium to (t0, gamma') at line centre.

    t0 = (n_g - 1) L / c via the closed form; beta > 0 makes n_g - 1 >= 0,
    so the component seeing the line exits earlier by t0.
    """
    _require_far_detuned(spec, "group_advance")
    gp = gamma_effective(spec)
    ng_minus_1 = spec.beta * (spec.omega_c_rabi**2 / (8 * spec.Delta**2)) * spec.omega0 / gp**2
    return ReducedLine(t0=ng_minus_1 * spec.length / C_LIGHT, gamma_prime=gp)


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
    computed independently via ``absorption`` to 1e-12 relative.
    """
    return float(np.exp(-2.0 * line.gamma_prime * line.t0))


def transfer_exponent(om, line: ReducedLine):
    """Exponent Phi of the line's transfer function H(Om) = exp(i Phi(Om)).

    Phi = t0 gamma'^2 (Om + i gamma') / (Om^2 + gamma'^2) at offset Om
    (rad/s) from line centre, in the e^{+i Om t} basis.  Re Phi is the
    spectral phase, Im Phi the field-loss exponent (gamma' t0 at centre, so
    the intensity transmission there is exp(-2 gamma' t0)).
    """
    gp = line.gamma_prime
    return line.t0 * gp**2 * (om + 1j * gp) / (om**2 + gp**2)


def phase_slope(om, line: ReducedLine):
    """Group advance dRe(Phi)/dOm (s) at offset Om from line centre.

    Equals ``line.t0`` at centre and changes sign at |Om| = gamma'.
    """
    gp = line.gamma_prime
    return line.t0 * gp**2 * (gp**2 - om**2) / (om**2 + gp**2) ** 2


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
    delta_grid = np.asarray(delta_grid, dtype=float)
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
    grid = np.asarray(delta_prime_grid, dtype=float)
    gp = gamma_effective(spec)
    if grid.size < _KK_MIN_POINTS:
        raise ParameterError(
            f"KK check needs >= {_KK_MIN_POINTS} points; got {grid.size}"
        )
    if grid.size and (-grid[0] < _KK_MIN_HALF_SPAN * gp or grid[-1] < _KK_MIN_HALF_SPAN * gp):
        raise ParameterError(
            f"KK check needs >= {_KK_MIN_HALF_SPAN:g} gamma' of span on each side"
        )
    return kramers_kronig_residual(grid, chi_lorentzian(grid, spec))
