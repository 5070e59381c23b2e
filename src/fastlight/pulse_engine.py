"""Time grids, Gaussian envelopes, and spectral propagation of polarized pulses.

The probe is a transform-limited Gaussian envelope riding on a carrier; its
horizontal component passes through the absorbing line while the vertical
component is a vacuum reference.  Propagation happens in the frequency domain.
With envelope spectral components written in the e^{+i Om t} basis (Om is the
baseband offset produced by the FFT), the line multiplies the H spectrum by
exp(i Phi(Om)), with Phi from ``atomic_response.transfer_exponent``: its
phase slope at band centre equals +t0, i.e. the H pulse exits *earlier* by
t0, and its field attenuation at band centre is exp(-gamma' t0), i.e. an
intensity transmission exp(-2 gamma' t0).  The common vacuum transit phase is
dropped for both components, so the V pulse is unshifted on the grid.

An idealized propagation (exact linear spectral phase, flat attenuation) is
provided alongside as the narrowband reference model: the two agree when the
pulse bandwidth is small against gamma'.

Conventions: times in seconds, angular frequencies in rad/s.  Envelope arrays
are immutable after construction.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from ._csvout import write_csv
from .atomic_response import ReducedLine, transfer_exponent, transmission
from .errors import (
    ApproximationWarning,
    NumericalError,
    ParameterError,
    check_number,
    check_positive,
    check_transmission,
)

# A synthesized or propagated pulse must stay clear of the grid ends; edge
# samples above this fraction of the peak mean wrap-around would corrupt it.
_BOUNDARY_FRACTION = 1e-6
_MIN_SAMPLES = 256
_MAX_SAMPLES = 1 << 22  # 64 MiB per complex array; far beyond any useful grid
_MAX_SPAN = 1e150  # seconds; squared times and widths on a shorter grid stay finite
_MIN_STEP = 1e-150  # seconds; squared frequencies on a coarser grid stay finite
_MIN_SPAN_SIGMAS = 16.0
_BANDWIDTH_GUARD = 10.0  # warn when pulse bandwidth exceeds this many gamma'


def _check_n_samples(n) -> None:
    in_range = isinstance(n, (int, np.integer)) and _MIN_SAMPLES <= n <= _MAX_SAMPLES
    if not in_range or (n & (n - 1)) != 0:
        raise ParameterError(
            f"n_samples: must be a power-of-two integer >= {_MIN_SAMPLES} "
            f"and <= {_MAX_SAMPLES}; got {n}"
        )


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling grid: n_samples (power of two, 256 to 2^22) from t_start."""

    n_samples: int
    dt: float
    t_start: float

    def __post_init__(self):
        _check_n_samples(self.n_samples)
        check_number("dt", self.dt)
        check_number("t_start", self.t_start)
        if not (self.span < _MAX_SPAN and self.dt >= _MIN_STEP):
            raise ParameterError(
                f"grid: span must be below {_MAX_SPAN:g} s and step at least {_MIN_STEP:g} s, "
                f"so that squares stay finite; got span {self.span:.3e} s, step {self.dt:.3e} s"
            )
        if not np.isfinite(self.t_start):
            raise ParameterError("t_start: must be finite")

    @property
    def span(self) -> float:
        return self.n_samples * self.dt

    @functools.cached_property
    def times(self) -> np.ndarray:
        """Sample times, built once per grid and read-only."""
        times = self.t_start + np.arange(self.n_samples) * self.dt
        times.setflags(write=False)
        return times


def check_grid_shape(n_samples: int, span_sigmas: float) -> None:
    """The grid bounds that hold whatever the pulse: ``n_samples`` a power of
    two from 256 to 2^22, and a span of at least 16 pulse widths."""
    _check_n_samples(n_samples)
    check_number("span_sigmas", span_sigmas)
    if not (span_sigmas >= _MIN_SPAN_SIGMAS):
        raise ParameterError(f"span_sigmas: must be >= {_MIN_SPAN_SIGMAS:g}")


def default_grid(sigma: float, n_samples: int = 4096, span_sigmas: float = 32.0) -> TimeGrid:
    """Grid centred on t = 0 spanning ``span_sigmas`` pulse widths."""
    check_positive("sigma", sigma)
    check_grid_shape(n_samples, span_sigmas)
    span = span_sigmas * sigma
    return TimeGrid(n_samples=n_samples, dt=span / n_samples, t_start=-span / 2)


@dataclass(frozen=True, eq=False)
class Envelope:
    """Complex baseband field envelope sampled on a TimeGrid.

    The optical carrier is factored out: ``samples`` is the slowly varying
    envelope, and every spectrum of it is a baseband offset from the carrier.
    """

    grid: TimeGrid
    samples: np.ndarray

    def __post_init__(self):
        samples = np.array(self.samples, dtype=complex)
        if samples.ndim != 1 or samples.size != self.grid.n_samples:
            raise ParameterError(
                "samples: expected a 1-d array matching grid.n_samples"
            )
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    @property
    def times(self) -> np.ndarray:
        return self.grid.times

    @functools.cached_property
    def intensity(self) -> np.ndarray:
        """|samples|^2 as re*re + im*im, the package's one |z|^2, computed once and read-only:
        within 1.5 ulp of the exact value wherever the squares are normal floats."""
        intensity = np.square(self.samples.real) + np.square(self.samples.imag)
        intensity.setflags(write=False)
        return intensity

    def energy(self) -> float:
        """Integrated intensity, trapezoidal rule, computed once as ``intensity`` is."""
        return self._energy

    @functools.cached_property
    def _energy(self) -> float:
        return _trapezoid(self.intensity, self.grid.dt)


def _trapezoid(y: np.ndarray, dx: float) -> float:
    """``float(np.trapezoid(y, dx=dx))`` bit for bit for a 1-d float64 ``y`` of
    at least 2 samples, without its set-up: the same ufuncs in the same
    order, (dx * (y[1:] + y[:-1])) / 2 summed by numpy's pairwise add."""
    s = np.add(y[1:], y[:-1])
    s *= dx
    s /= 2.0
    return float(np.add.reduce(s))


@dataclass(frozen=True, eq=False)
class PolarizedPulse:
    """H and V envelope pair on one grid.

    ``reference_energy``, finite and > 0, is the total energy of the state
    when it was assembled (before the medium); throughput is measured against it.
    """

    h: Envelope
    v: Envelope
    reference_energy: float

    def __post_init__(self):
        if self.h.grid != self.v.grid:
            raise ParameterError("h and v must share the same time grid")
        check_positive("reference_energy", self.reference_energy)


def _check_no_wraparound(samples: np.ndarray, context: str) -> None:
    peak = float(np.max(np.abs(samples)))
    if peak == 0.0:
        return
    edge = max(abs(samples[0]), abs(samples[-1]))
    if edge >= _BOUNDARY_FRACTION * peak:
        raise NumericalError(
            f"{context}: envelope reaches the grid boundary "
            f"(|edge|/|peak| = {edge / peak:.2e}); enlarge the grid span"
        )


def make_gaussian(grid: TimeGrid, sigma: float, center: float, amplitude: float) -> Envelope:
    """Transform-limited Gaussian envelope with intensity standard deviation sigma.

    samples = amplitude * exp(-(t - center)^2 / (4 sigma^2)), so the intensity
    profile has std sigma and FWHM 2 sqrt(2 ln 2) sigma.  The grid must span
    at least 16 sigma, the centre must lie in the middle half of the grid,
    and the resulting envelope must be negligible at the grid ends.
    """
    check_positive("sigma", sigma)
    check_positive("amplitude", amplitude)
    check_number("center", center)
    if not 4 * sigma**2 > 0:
        raise ParameterError(f"sigma: {sigma:.3e} s is too short; its square underflows to 0")
    if grid.span < _MIN_SPAN_SIGMAS * sigma:
        raise ParameterError(f"grid span {grid.span:.3e} s is below {_MIN_SPAN_SIGMAS:g} sigma")
    lo = grid.t_start + grid.span / 4
    hi = grid.t_start + 3 * grid.span / 4
    if not (lo <= center <= hi):
        raise ParameterError(
            f"center: must lie in the middle half of the grid [{lo:.3e}, {hi:.3e}] s"
        )
    t = grid.times
    samples = amplitude * np.exp(-((t - center) ** 2) / (4 * sigma**2))
    _check_no_wraparound(samples, "make_gaussian")
    env = Envelope(grid=grid, samples=samples)
    with np.errstate(over="ignore"):  # an energy too large for a float is refused here
        energy = env.energy()
    if not np.isfinite(energy) or energy <= 0:
        raise ParameterError("synthesized envelope must carry finite positive energy")
    return env


def prepare_input(pulse: Envelope, t_tilde: float) -> PolarizedPulse:
    """Split a pulse into the unequal-weight H/V input state.

    h = pulse / sqrt(1 + T~),  v = sqrt(T~) pulse / sqrt(1 + T~),
    where T~ in (0, 1] is the line-centre intensity transmission the H
    component will see.  H carries the larger weight; the total energy equals
    the source pulse energy, which is stored as the throughput reference.
    The two arms are in phase: every output assumes equal path lengths.
    """
    check_transmission("t_tilde", t_tilde)
    norm = np.sqrt(1.0 + t_tilde)
    h = Envelope(pulse.grid, pulse.samples / norm)
    v = Envelope(pulse.grid, pulse.samples * (np.sqrt(t_tilde) / norm))
    return PolarizedPulse(h=h, v=v, reference_energy=pulse.energy())


def _baseband_frequencies(grid: TimeGrid) -> np.ndarray:
    return 2 * np.pi * np.fft.fftfreq(grid.n_samples, grid.dt)


def _spectral_width(spectrum: np.ndarray, om: np.ndarray) -> float:
    """Intensity-weighted std (rad/s) of a baseband spectrum sampled at ``om``.

    The weights are normalised to a unit peak before squaring, so that a
    bright pulse's weights do not overflow.
    """
    magnitude = np.abs(spectrum)
    peak = magnitude.max()
    if peak == 0.0:
        return 0.0
    w = (magnitude / peak) ** 2
    total = w.sum()
    mean = float((om * w).sum() / total)
    return float(np.sqrt(max((om**2 * w).sum() / total - mean**2, 0.0)))


def _filter_h(
    pulse: PolarizedPulse, spectrum: np.ndarray, transfer: np.ndarray, gain: float, context: str
) -> PolarizedPulse:
    """Multiply ``spectrum``, the FFT of H, by ``transfer`` in place and the
    filtered H by ``gain``; V and the reference energy pass through unchanged."""
    spectrum *= transfer
    h_out = np.fft.ifft(spectrum)
    h_out *= gain
    _check_no_wraparound(h_out, context)
    return PolarizedPulse(Envelope(pulse.h.grid, h_out), pulse.v, pulse.reference_energy)


def propagate_ideal(pulse: PolarizedPulse, line: ReducedLine) -> PolarizedPulse:
    """Narrowband reference model: advance H by t0, attenuate it by sqrt(T~).

    The shift is an exact spectral linear phase; V is untouched.  This is the
    closed-form limit of ``propagate_lorentzian`` for bandwidth << gamma'.
    """
    if line.t0 == 0.0:
        return pulse
    grid = pulse.h.grid
    if line.t0 > grid.span / 4:
        raise NumericalError(
            f"shift t0 = {line.t0:.3e} s exceeds a quarter of the grid span "
            f"{grid.span:.3e} s"
        )
    shift = np.exp(1j * _baseband_frequencies(grid) * line.t0)
    spectrum = np.fft.fft(pulse.h.samples)
    return _filter_h(pulse, spectrum, shift, np.sqrt(transmission(line)), "propagate_ideal")


def propagate_lorentzian(pulse: PolarizedPulse, line: ReducedLine) -> PolarizedPulse:
    """Propagate H through the full Lorentzian line transfer function.

    H spectrum is multiplied by exp(i Phi(Om)), Phi from
    ``transfer_exponent``; V is untouched (common vacuum phase removed).

    Warns when the pulse bandwidth exceeds 10 gamma' (the narrowband reading
    of the line parameters is then marginal; the distortion produced is
    physical).  Raises NumericalError if the output reaches the grid edge.
    """
    if line.t0 == 0.0:
        return pulse
    om = _baseband_frequencies(pulse.h.grid)
    phi = transfer_exponent(om, line)  # first: a refused gamma' must not warn
    spectrum = np.fft.fft(pulse.h.samples)
    bandwidth = _spectral_width(spectrum, om)
    if bandwidth > _BANDWIDTH_GUARD * line.gamma_prime:
        warnings.warn(
            f"pulse bandwidth {bandwidth:.3e} rad/s exceeds "
            f"{_BANDWIDTH_GUARD:g} gamma'; narrowband line parameters are "
            "marginal for this pulse",
            ApproximationWarning,
            stacklevel=2,
        )
    phi *= 1j  # exp(i Phi), formed in Phi's own array
    return _filter_h(pulse, spectrum, np.exp(phi, out=phi), 1.0, "propagate_lorentzian")


def write_envelope_csv(envelope: Envelope, path) -> None:
    """Envelope dump: columns t_seconds, re, im, intensity."""
    z = envelope.samples
    columns = {"t_seconds": envelope.times, "re": z.real, "im": z.imag}
    write_csv(path, {**columns, "intensity": envelope.intensity})
