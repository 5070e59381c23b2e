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

from .atomic_response import ReducedLine, transfer_exponent, transmission
from .errors import (
    ApproximationWarning,
    NumericalError,
    ParameterError,
    check_positive,
    check_transmission,
)

# A synthesized or propagated pulse must stay clear of the grid ends; edge
# samples above this fraction of the peak mean wrap-around would corrupt it.
_BOUNDARY_FRACTION = 1e-6
_MIN_SAMPLES = 256
_MAX_SAMPLES = 1 << 22  # 64 MiB per complex array; far beyond any useful grid
_MIN_SPAN_SIGMAS = 16.0
_BANDWIDTH_GUARD = 10.0  # warn when pulse bandwidth exceeds this many gamma'
NUMBER_FORMAT = "%.12e"  # every number in every CSV file the package writes


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling grid: n_samples (power of two, 256 to 2^22) from t_start."""

    n_samples: int
    dt: float
    t_start: float

    def __post_init__(self):
        n = self.n_samples
        in_range = isinstance(n, (int, np.integer)) and _MIN_SAMPLES <= n <= _MAX_SAMPLES
        if not in_range or (n & (n - 1)) != 0:
            raise ParameterError(
                f"n_samples: must be a power-of-two integer >= {_MIN_SAMPLES} "
                f"and <= {_MAX_SAMPLES}; got {n}"
            )
        check_positive("dt", self.dt)
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


def default_grid(sigma: float, n_samples: int = 4096, span_sigmas: float = 32.0) -> TimeGrid:
    """Grid centred on t = 0 spanning ``span_sigmas`` pulse widths."""
    check_positive("sigma", sigma)
    if not (span_sigmas >= _MIN_SPAN_SIGMAS):
        raise ParameterError(f"span_sigmas: must be >= {_MIN_SPAN_SIGMAS:g}")
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

    def energy(self) -> float:
        """Integrated intensity, trapezoidal rule."""
        return float(np.trapezoid(np.abs(self.samples) ** 2, dx=self.grid.dt))


@dataclass(frozen=True, eq=False)
class PolarizedPulse:
    """H and V envelope pair on one grid.

    ``reference_energy`` is the total energy of the state when it was
    assembled (before the medium); throughput downstream is measured against
    it.
    """

    h: Envelope
    v: Envelope
    reference_energy: float

    def __post_init__(self):
        if self.h.grid != self.v.grid:
            raise ParameterError("h and v must share the same time grid")


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
    if grid.span < _MIN_SPAN_SIGMAS * sigma:
        raise ParameterError(
            f"grid span {grid.span:.3e} s is below {_MIN_SPAN_SIGMAS:g} sigma"
        )
    lo = grid.t_start + grid.span / 4
    hi = grid.t_start + 3 * grid.span / 4
    if not (lo <= center <= hi):
        raise ParameterError(
            "center: must lie in the middle half of the grid "
            f"[{lo:.3e}, {hi:.3e}] s"
        )
    t = grid.times
    samples = amplitude * np.exp(-((t - center) ** 2) / (4 * sigma**2))
    _check_no_wraparound(samples, "make_gaussian")
    env = Envelope(grid=grid, samples=samples)
    if not np.isfinite(env.energy()) or env.energy() <= 0:
        raise ParameterError("synthesized envelope must carry finite positive energy")
    return env


def prepare_input(
    pulse: Envelope, t_tilde: float, relative_phase: float = 0.0
) -> PolarizedPulse:
    """Split a pulse into the unequal-weight H/V input state.

    h = pulse / sqrt(1 + T~),  v = e^{i phi} sqrt(T~) pulse / sqrt(1 + T~),
    where T~ in (0, 1] is the line-centre intensity transmission the H
    component will see.  H carries the larger weight; the total energy equals
    the source pulse energy, which is stored as the throughput reference.
    ``relative_phase`` models a static H-V optical path difference (default
    0: equal path lengths).
    """
    check_transmission("t_tilde", t_tilde)
    norm = np.sqrt(1.0 + t_tilde)
    h = Envelope(pulse.grid, pulse.samples / norm)
    v_samples = pulse.samples * (np.sqrt(t_tilde) / norm)
    if relative_phase != 0.0:
        v_samples = v_samples * np.exp(1j * relative_phase)
    v = Envelope(pulse.grid, v_samples)
    return PolarizedPulse(h=h, v=v, reference_energy=pulse.energy())


def _baseband_frequencies(grid: TimeGrid) -> np.ndarray:
    return 2 * np.pi * np.fft.fftfreq(grid.n_samples, grid.dt)


def _spectral_width(samples: np.ndarray, grid: TimeGrid) -> float:
    """Intensity-weighted std of the baseband spectrum (rad/s)."""
    om = _baseband_frequencies(grid)
    w = np.abs(np.fft.fft(samples)) ** 2
    total = w.sum()
    if total == 0.0:
        return 0.0
    mean = float((om * w).sum() / total)
    return float(np.sqrt(max((om**2 * w).sum() / total - mean**2, 0.0)))


def _filter_h(
    pulse: PolarizedPulse, transfer: np.ndarray, gain: float, context: str
) -> PolarizedPulse:
    """Multiply the H spectrum by ``transfer`` and the filtered H by ``gain``;
    V and the reference energy pass through unchanged."""
    h_out = np.fft.ifft(np.fft.fft(pulse.h.samples) * transfer) * gain
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
    return _filter_h(pulse, shift, np.sqrt(transmission(line)), "propagate_ideal")


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
    grid = pulse.h.grid
    bandwidth = _spectral_width(pulse.h.samples, grid)
    if bandwidth > _BANDWIDTH_GUARD * line.gamma_prime:
        warnings.warn(
            f"pulse bandwidth {bandwidth:.3e} rad/s exceeds "
            f"{_BANDWIDTH_GUARD:g} gamma'; narrowband line parameters are "
            "marginal for this pulse",
            ApproximationWarning,
            stacklevel=2,
        )
    phi = transfer_exponent(_baseband_frequencies(grid), line)
    return _filter_h(pulse, np.exp(1j * phi), 1.0, "propagate_lorentzian")


def write_csv(path, header: list, rows, row_format: str | None = None) -> None:
    """Write a CSV file: the ``header`` line, then ``row_format % row`` per row.

    Rows are tuples; by default every cell is a number in NUMBER_FORMAT.
    Lines end in "\n" on every platform, so reruns are byte-identical.
    """
    if row_format is None:
        row_format = ",".join([NUMBER_FORMAT] * len(header))
    row_format += "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row_format % row for row in rows)


def write_envelope_csv(envelope: Envelope, path) -> None:
    """Envelope dump: columns t_seconds, re, im, intensity."""
    samples = envelope.samples
    # abs() of each Python complex, not np.abs: the two round |z| apart in
    # the last bit for a few samples, which shows in the printed intensity.
    intensity = [abs(z) ** 2 for z in samples.tolist()]
    rows = zip(envelope.times.tolist(), samples.real.tolist(), samples.imag.tolist(), intensity)
    write_csv(path, ["t_seconds", "re", "im", "intensity"], rows)
