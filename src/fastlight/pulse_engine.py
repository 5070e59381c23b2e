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
_MAX_SPAN = 1e150  # seconds; squared times and widths on a shorter grid stay finite
_MIN_STEP = 1e-150  # seconds; squared frequencies on a coarser grid stay finite
_MIN_SPAN_SIGMAS = 16.0
_BANDWIDTH_GUARD = 10.0  # warn when pulse bandwidth exceeds this many gamma'
NUMBER_FORMAT = "%.12e"  # every number in every CSV file the package writes

# Numeric CSV cells are formatted a block of rows at a time (see _format_rows).
_BLOCK_ROWS = 4096  # bounds the working arrays, so peak memory does not grow with the table
_REGULAR = (1e-290, 1e290)  # |x| strictly inside scales to 13 digits without over- or underflow
_POWERS_FROM = -280  # the powers-of-ten table runs from 10^-280 to 10^305
_DOUBT = 2.3e-16  # bounds the relative error of a scaled cell (see _format_rows)
_EXPONENTS_FROM = -324  # the exponent table runs from e-324 to e+308
# One cell: byte 0 the separator ("\n" before a row's first cell, "," before
# the others), 1 the sign, 2 the leading digit, 3 ".", 4-15 twelve digits,
# 16-23 "e", the exponent's sign and two or three digits, blank-padded.  A
# positive number drops byte 0 and carries the separator in byte 1, so the
# bytes kept are one run: from byte 0 or 1 to byte 19 or 20.
_CELL = np.frombuffer(b",-0.000000000000        ", dtype=np.uint8)
_CELL_KEEP = np.arange(24) < 20


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

    @functools.cached_property
    def intensity(self) -> np.ndarray:
        """|samples|^2, computed once per envelope and read-only."""
        intensity = np.abs(self.samples) ** 2
        intensity.setflags(write=False)
        return intensity

    def energy(self) -> float:
        """Integrated intensity, trapezoidal rule."""
        return float(np.trapezoid(self.intensity, dx=self.grid.dt))


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


def _spectral_width(samples: np.ndarray, grid: TimeGrid) -> float:
    """Intensity-weighted std of the baseband spectrum (rad/s).

    The weights are normalised to a unit peak before squaring, so that a
    bright pulse's weights do not overflow.
    """
    om = _baseband_frequencies(grid)
    magnitude = np.abs(np.fft.fft(samples))
    peak = magnitude.max()
    if peak == 0.0:
        return 0.0
    w = (magnitude / peak) ** 2
    total = w.sum()
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


@functools.cache
def _tables() -> tuple:
    """The powers of ten 10^k from k = _POWERS_FROM, each the double nearest
    10^k (Python parses "1e{k}" correctly rounded); the ASCII digits of 0000
    to 9999 as one uint32 word each; and the exponent fields "e-324" to
    "e+308" as one 8-byte word each.
    """
    powers = np.array([float(f"1e{k}") for k in range(_POWERS_FROM, 306)])
    d = np.arange(10, dtype=np.uint8) + ord("0")
    places = np.broadcast_arrays(d[:, None, None, None], d[:, None, None], d[:, None], d)
    words = np.stack(places, axis=-1).reshape(10000, 4).view(np.uint32).ravel()
    exponents = [f"e{k:+03d}".ljust(8).encode() for k in range(_EXPONENTS_FROM, 309)]
    return powers, words, np.array(exponents).view(np.uint64)


def _format_rows(table: np.ndarray) -> bytes:
    """Each row of a 2-d float64 array as one "\n"-led line of comma-separated
    cells, every cell the bytes that ``NUMBER_FORMAT % x`` prints.

    A finite x with a = |x| inside _REGULAR prints as M * 10^(E-12), with M
    the 13-digit integer nearest v = a * 10^(12-E), ties to even.  E starts
    as floor(log10 a) and is corrected once, so that p = RN(a * hi) lies in
    [1e12, 1e13], with hi = RN(10^(12-E)) from the table.  hi and p are each
    rounded once, so with u = 2^-53, |p - v| <= (2u + u^2)/(1 - u)^2 p <
    2.3e-16 p = _DOUBT p.  Where |p - rint(p)| <= 1/2 - _DOUBT p, v lies
    less than 1/2 from rint(p), which is then M.  Zeros, nan and inf are
    written directly.  The other cells (near-ties, about one in 700 of a
    propagated trace, and a outside _REGULAR) are printed by NUMBER_FORMAT
    itself and their digits parsed back, so every cell leaves through the
    same byte layout.
    """
    powers, words, exponents = _tables()
    x = table.ravel()
    nan, inf, zero = np.isnan(x), np.isinf(x), x == 0.0
    a = np.abs(x)
    regular = (a > _REGULAR[0]) & (a < _REGULAR[1])
    a = np.where(regular, a, 1.0)  # log10 never sees 0, nan or inf; 1.0 gives M = 1e12, E = 0
    e = np.floor(np.log10(a)).astype(np.int64)
    k = (12 - _POWERS_FROM) - e  # the table index of 10^(12-E)
    p = a * powers[k]
    off = np.flatnonzero((p < 1e12) | (p >= 1e13))  # log10 rounded across a power of ten
    step = np.where(p[off] < 1e12, 1, -1)
    e[off] -= step
    k[off] += step
    p[off] = a[off] * powers[k[off]]
    m = np.rint(p)
    odd = np.flatnonzero(~(regular | zero | nan | inf) | (np.abs(p - m) > 0.5 - _DOUBT * p))
    m = m.astype(np.int64)
    carry = m == 10**13
    m[carry] = 10**12
    e += carry
    m[zero] = 0
    printed = [(NUMBER_FORMAT % v).replace(".", "").split("e") for v in x[odd].tolist()]
    m[odd] = [abs(int(digits)) for digits, _ in printed]
    e[odd] = [int(exponent) for _, exponent in printed]

    cells = np.tile(_CELL, (x.size, 1))
    cells[:: table.shape[1], 0] = ord("\n")
    negative = np.signbit(x) & ~nan
    cells[:, 1] = np.where(negative, ord("-"), cells[:, 0])
    lead, rest = np.divmod(m, 10**12)
    cells[:, 2] += lead.astype(np.uint8)
    word = cells.view(np.uint32)
    word[:, 1] = words[rest // 10**8]
    word[:, 2] = words[rest // 10**4 % 10**4]
    word[:, 3] = words[rest % 10**4]
    cells.view(np.uint64)[:, 2] = exponents[e - _EXPONENTS_FROM]
    cells[nan, 2:5] = np.frombuffer(b"nan", dtype=np.uint8)
    cells[inf, 2:5] = np.frombuffer(b"inf", dtype=np.uint8)
    keep = np.tile(_CELL_KEEP, (x.size, 1))
    keep[:, 0] = negative
    keep[:, 20] = np.abs(e) >= 100
    keep[nan | inf, 5:] = False
    return cells.ravel()[keep.ravel()].tobytes()


def write_csv(path, columns: dict) -> None:
    """Write a numeric table: a header line of the column names, then one
    line per row.

    ``columns`` maps each name to a column of numbers, all of one length.
    Every cell is the value as float64 printed in NUMBER_FORMAT, byte for
    byte what Python's ``%`` prints.  Lines end in "\n" on every platform,
    so reruns are byte-identical.
    """
    table = np.column_stack([np.asarray(column, dtype=float) for column in columns.values()])
    with open(path, "wb") as fh:
        fh.write(",".join(columns).encode())
        for start in range(0, len(table), _BLOCK_ROWS):
            fh.write(_format_rows(table[start : start + _BLOCK_ROWS]))
        fh.write(b"\n")


def write_envelope_csv(envelope: Envelope, path) -> None:
    """Envelope dump: columns t_seconds, re, im, intensity."""
    re, im = envelope.samples.real, envelope.samples.imag
    # The intensity is Python's abs(z) ** 2: np.hypot rounds |z| exactly as
    # complex abs() does, and float_power calls libm pow(h, 2) as Python's **
    # does; h * h (numpy's square, and np.power's) differs from it in the last
    # bit now and then, which can show in the 13th printed digit.
    intensity = np.float_power(np.hypot(re, im), 2.0)
    columns = {"t_seconds": envelope.times, "re": re, "im": im, "intensity": intensity}
    write_csv(path, columns)
