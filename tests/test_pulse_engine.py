from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastlight import (
    ApproximationWarning,
    NumericalError,
    ParameterError,
    ReducedLine,
    centroid,
    default_grid,
    group_advance,
    make_gaussian,
    post_select,
    prepare_input,
    propagate_ideal,
    propagate_lorentzian,
    transmission,
)
from fastlight import _csvout
from fastlight._csvout import NUMBER_FORMAT, write_csv
from fastlight.atomic_response import transfer_exponent
from fastlight.pulse_engine import Envelope, PolarizedPulse, TimeGrid, write_envelope_csv

SIGMA = 28e-6


def _quick_state(t_tilde=0.5, sigma=SIGMA, n_samples=4096):
    grid = default_grid(sigma, n_samples=n_samples)
    source = make_gaussian(grid, sigma, 0.0, 1.0)
    return source, prepare_input(source, t_tilde)


@pytest.mark.parametrize(
    "n_samples,dt", [(100, 1.0), (300, 1.0), (4096, 0.0), (4096, -1.0), (4096, 1e-160)]
)
def test_time_grid_validation(n_samples, dt):
    with pytest.raises(ParameterError):
        TimeGrid(n_samples=n_samples, dt=dt, t_start=0.0)


def test_time_grid_geometry():
    grid = TimeGrid(n_samples=512, dt=0.25, t_start=-64.0)
    assert grid.span == 128.0
    times = grid.times
    assert times[0] == -64.0
    assert times[-1] == -64.0 + 511 * 0.25


def test_default_grid_is_centered():
    grid = default_grid(SIGMA)
    assert grid.n_samples == 4096
    assert grid.span == pytest.approx(32 * SIGMA)
    assert grid.t_start == pytest.approx(-16 * SIGMA)


def test_gaussian_energy_and_width():
    grid = default_grid(SIGMA)
    env = make_gaussian(grid, SIGMA, 0.0, 2.0)
    # closed form: amplitude^2 sigma sqrt(2 pi)
    assert env.energy() == pytest.approx(4.0 * SIGMA * np.sqrt(2 * np.pi), rel=1e-9)
    est = centroid(env)
    assert est.center == pytest.approx(0.0, abs=1e-9 * SIGMA)
    assert est.width == pytest.approx(SIGMA, rel=1e-6)


def test_gaussian_energy_scales_exactly_with_amplitude():
    grid = default_grid(SIGMA)
    one = make_gaussian(grid, SIGMA, 0.0, 1.0)
    two = make_gaussian(grid, SIGMA, 0.0, 2.0)
    assert two.energy() == 4.0 * one.energy()


def test_gaussian_fwhm():
    grid = default_grid(SIGMA, n_samples=8192)
    env = make_gaussian(grid, SIGMA, 0.0, 1.0)
    intensity = np.abs(env.samples) ** 2
    above = env.times[intensity >= 0.5 * intensity.max()]
    fwhm = above[-1] - above[0]
    # quantized to the sample spacing (sigma/256), hence the loose tolerance
    assert fwhm == pytest.approx(2 * np.sqrt(2 * np.log(2)) * SIGMA, rel=5e-3)


def test_gaussian_rejects_bad_geometry():
    grid = default_grid(SIGMA)
    with pytest.raises(ParameterError):
        make_gaussian(grid, SIGMA, 12 * SIGMA, 1.0)  # outside middle half
    with pytest.raises(ParameterError):
        make_gaussian(grid, 3 * SIGMA, 0.0, 1.0)  # span below 16 sigma
    with pytest.raises(ParameterError):
        make_gaussian(grid, SIGMA, 0.0, -1.0)
    # center legal but tails no longer negligible at the boundary
    with pytest.raises(NumericalError, match="make_gaussian: envelope reaches the grid boundary"):
        make_gaussian(grid, 1.9 * SIGMA, 7.9 * SIGMA, 1.0)
    # the grid step passes; 4 sigma^2 rounds to 0, which would divide by zero
    fine = TimeGrid(n_samples=4096, dt=1e-150, t_start=-2048e-150)
    with pytest.raises(ParameterError, match="sigma: .* square underflows"):
        make_gaussian(fine, 1e-163, 0.0, 1.0)


def test_envelope_samples_are_immutable():
    grid = default_grid(SIGMA)
    env = make_gaussian(grid, SIGMA, 0.0, 1.0)
    with pytest.raises(ValueError):
        env.samples[0] = 1.0


def test_prepare_input_weights_and_energy():
    source, state = _quick_state(t_tilde=0.25)
    ratio = np.abs(state.h.samples) / np.abs(state.v.samples)
    assert np.allclose(ratio, 2.0, rtol=1e-12)
    assert state.h.energy() + state.v.energy() == pytest.approx(
        source.energy(), rel=1e-12
    )
    assert state.reference_energy == pytest.approx(source.energy(), rel=0)


@pytest.mark.parametrize("t_tilde", [0.0, -0.5, 1.5])
def test_prepare_input_rejects_bad_transmission(t_tilde):
    grid = default_grid(SIGMA)
    source = make_gaussian(grid, SIGMA, 0.0, 1.0)
    with pytest.raises(ParameterError):
        prepare_input(source, t_tilde)


@pytest.mark.parametrize("energy", [np.nan, np.inf, 0.0, -1.0])
def test_a_state_refuses_a_reference_energy_that_is_not_finite_and_positive(energy):
    # throughput is measured against it: nan would give a nan throughput and
    # inf a throughput of 0, so the state refuses both when it is built
    _, state = _quick_state()
    with pytest.raises(ParameterError, match="^reference_energy: must be finite and > 0$"):
        PolarizedPulse(state.h, state.v, energy)


def test_ideal_zero_advance_is_identity():
    _, state = _quick_state()
    line = ReducedLine(t0=0.0, gamma_prime=1e6)
    assert propagate_ideal(state, line) is state
    assert propagate_lorentzian(state, line) is state


def test_ideal_shift_moves_centroid_and_scales_energy(quick_line):
    _, state = _quick_state(t_tilde=transmission(quick_line))
    out = propagate_ideal(state, quick_line)
    est = centroid(out.h)
    assert est.center == pytest.approx(-quick_line.t0, rel=1e-9)
    ratio = out.h.energy() / state.h.energy()
    assert ratio == pytest.approx(transmission(quick_line), rel=1e-13)
    # reference arm untouched
    assert out.v is state.v


def test_ideal_rejects_shift_beyond_grid():
    _, state = _quick_state()
    line = ReducedLine(t0=10 * 32 * SIGMA, gamma_prime=1e6)
    with pytest.raises(NumericalError, match="exceeds a quarter of the grid span"):
        propagate_ideal(state, line)


def test_lorentzian_energy_ratio_near_line_transmission(quick_line):
    # sigma gamma' = 34.7: deep narrowband, energy ratio ~ T~ to ~0.1%
    _, state = _quick_state(t_tilde=transmission(quick_line))
    out = propagate_lorentzian(state, quick_line)
    ratio = out.h.energy() / state.h.energy()
    assert ratio == pytest.approx(transmission(quick_line), rel=1e-3)


@pytest.mark.parametrize(
    "sigma,line",
    [
        (SIGMA, ReducedLine(t0=0.28e-6, gamma_prime=-np.log(0.5) / (2 * 0.28e-6))),
        # sigma gamma' = 1: the spectral wings are clipped and the pulse distorts
        (1e-6, ReducedLine(t0=1e-7, gamma_prime=1e6)),
    ],
    ids=["quick_start", "distorted"],
)
def test_lorentzian_energy_is_the_spectrum_weighted_by_the_line_loss(sigma, line):
    # Parseval: the filter keeps |X(Om)|^2 e^{-2 Im Phi(Om)} of each component
    _, state = _quick_state(sigma=sigma)
    out = propagate_lorentzian(state, line)
    grid = state.h.grid
    power = np.abs(np.fft.fft(state.h.samples)) ** 2
    om = 2 * np.pi * np.fft.fftfreq(grid.n_samples, grid.dt)
    kept = np.sum(power * np.exp(-2 * transfer_exponent(om, line).imag)) / np.sum(power)
    assert out.h.energy() == pytest.approx(state.h.energy() * kept, rel=1e-10)


def test_propagation_is_linear(quick_line):
    grid = default_grid(SIGMA)
    small = make_gaussian(grid, SIGMA, 0.0, 1.0)
    large = make_gaussian(grid, SIGMA, 0.0, 3.0)
    out_small = propagate_lorentzian(prepare_input(small, 0.5), quick_line)
    out_large = propagate_lorentzian(prepare_input(large, 0.5), quick_line)
    assert np.allclose(out_large.h.samples, 3.0 * out_small.h.samples, rtol=1e-12)


def test_spectral_agrees_with_ideal_in_narrowband_limit(quick_line):
    # bandwidth = gamma'/20  <->  sigma = 10/gamma'
    sigma = 10.0 / quick_line.gamma_prime
    grid = default_grid(sigma)
    source = make_gaussian(grid, sigma, 0.0, 1.0)
    state = prepare_input(source, transmission(quick_line))
    spectral = propagate_lorentzian(state, quick_line)
    ideal = propagate_ideal(state, quick_line)
    center_gap = abs(centroid(spectral.h).center - centroid(ideal.h).center)
    assert center_gap < quick_line.t0 / 100
    energy_gap = abs(spectral.h.energy() - ideal.h.energy()) / ideal.h.energy()
    assert energy_gap < 0.01


def test_wideband_pulse_warns(quick_line):
    # bandwidth 1/(2 sigma) = 12.5 gamma' exceeds the 10 gamma' guard; the
    # grid must still hold the line's slow exp(-gamma' t) ringdown, which
    # far outlasts the pulse itself at this bandwidth
    sigma = 0.04 / quick_line.gamma_prime
    line = ReducedLine(t0=0.001 * sigma, gamma_prime=quick_line.gamma_prime)
    grid = default_grid(sigma, n_samples=8192, span_sigmas=256.0)
    state = prepare_input(make_gaussian(grid, sigma, 0.0, 1.0), 0.5)
    with pytest.warns(ApproximationWarning):
        propagate_lorentzian(state, line)


def test_distortion_regression():
    # sigma gamma' = 1 with t0 = 0.1 sigma: the line clips spectral wings, so
    # the centroid advance falls short of t0 and the pulse narrows slightly
    gp = 1.0e6
    sigma = 1.0 / gp
    line = ReducedLine(t0=0.1 * sigma, gamma_prime=gp)
    grid = default_grid(sigma)
    state = prepare_input(make_gaussian(grid, sigma, 0.0, 1.0), transmission(line))
    out = propagate_lorentzian(state, line)
    est = centroid(out.h)
    assert -est.center / line.t0 == pytest.approx(0.6185881348, rel=1e-6)
    assert est.width / sigma == pytest.approx(0.9796275424, rel=1e-6)


def _rowwise_csv(header, rows) -> bytes:
    """Reference writer: the header, then ``NUMBER_FORMAT % cell`` per cell, row by row."""
    row_format = ",".join([NUMBER_FORMAT] * len(header)) + "\n"
    return (",".join(header) + "\n" + "".join(row_format % tuple(row) for row in rows)).encode()


def test_envelope_csv_round_trip(tmp_path):
    grid = default_grid(SIGMA, n_samples=256, span_sigmas=16.0)
    env = make_gaussian(grid, SIGMA, 0.0, 1.0)
    path = tmp_path / "trace.csv"
    write_envelope_csv(env, path)
    intensity = [z.real * z.real + z.imag * z.imag for z in env.samples.tolist()]
    rows = zip(env.times.tolist(), env.samples.real.tolist(), env.samples.imag.tolist(), intensity)
    assert path.read_bytes() == _rowwise_csv(["t_seconds", "re", "im", "intensity"], rows)


def test_multi_block_table_matches_rowwise_writer(tmp_path):
    rows = 2 * _csvout._BLOCK_ROWS + 3
    rng = np.random.default_rng(5)
    columns = {
        "a": np.linspace(-1.0, 1.0, rows),
        "b": rng.standard_normal(rows) * 10.0 ** rng.integers(-200, 200, rows),
        "c": rng.standard_normal(rows),
    }
    columns["a"][_csvout._BLOCK_ROWS] = -0.0
    columns["b"][[7, _csvout._BLOCK_ROWS - 1]] = [np.nan, -np.inf]
    columns["c"][-1] = -1.5e-123
    path = tmp_path / "table.csv"
    write_csv(path, columns)
    expected = _rowwise_csv(list(columns), zip(*[c.tolist() for c in columns.values()]))
    assert path.read_bytes() == expected


def _ulp_below(x: Fraction) -> Fraction:
    """The spacing of doubles in the binade of the positive rational ``x``."""
    lo = float(x)
    if Fraction(lo) > x:
        lo = float(np.nextafter(lo, 0.0))
    return Fraction(float(np.spacing(lo)))


# a part whose square is 0 or a normal float: 0 or 2^-511 <= |x| < 2^511
_PARTS = (st.just(0.0) | st.floats(2.0**-511, 2.0**511, exclude_max=True)).flatmap(
    lambda x: st.sampled_from([x, -x])
)


@settings(deadline=None)
@given(st.lists(st.tuples(_PARTS, _PARTS), min_size=1, max_size=256))
def test_intensity_is_within_one_and_a_half_ulp_of_the_exact_square(parts):
    # two rounded squares and one rounded sum of positive terms: at most
    # 1.5 ulp of the exact |z|^2 while the squares are normal
    samples = np.zeros(256, dtype=complex)
    samples[: len(parts)] = [complex(re, im) for re, im in parts]
    intensity = Envelope(TimeGrid(n_samples=256, dt=1.0, t_start=0.0), samples).intensity
    assert not intensity.flags.writeable
    for (re, im), value in zip(parts, intensity.tolist()):
        exact = Fraction(re) ** 2 + Fraction(im) ** 2
        if exact == 0:
            assert value == 0.0
        else:
            assert abs(Fraction(value) - exact) <= Fraction(3, 2) * _ulp_below(exact), (re, im)


def test_readme_medium_trace_matches_rowwise_writer(tmp_path, demo_spec):
    line = group_advance(demo_spec)
    grid = default_grid(SIGMA, n_samples=1 << 16)
    state = prepare_input(make_gaussian(grid, SIGMA, 0.0, 1.0), transmission(line))
    selected = post_select(propagate_lorentzian(state, line), np.deg2rad(-40.0)).envelope
    path = tmp_path / "trace.csv"
    write_envelope_csv(selected, path)
    samples = selected.samples.tolist()
    intensity = [z.real * z.real + z.imag * z.imag for z in samples]
    rows = zip(selected.times.tolist(), *zip(*[(z.real, z.imag) for z in samples]), intensity)
    assert path.read_bytes() == _rowwise_csv(["t_seconds", "re", "im", "intensity"], rows)


def _hard_cases() -> list:
    """Values at which a formatter that is not correctly rounded would slip."""
    rng = np.random.default_rng(17)
    values = [0.0, 5e-324, 1.7976931348623157e308, float("nan"), float("inf")]
    values += [float(f"1e{k}") for k in range(-323, 309)]
    for k in (-300, -290, -150, -20, -5, 0, 5, 20, 150, 290, 300):
        values.append(float(f"9.9999999999995e{k}"))  # rounds up to the next power of ten
        for digits in rng.integers(10**12, 10**13, 4).tolist():
            values.append(float(f"{digits}5e{k - 13}"))  # a 13-digit tie, to the nearest double
    for digits in rng.integers(10**12, 10**13, 8).tolist():
        values += [digits + 0.5, (10 * digits + 5) * 100.0]  # exact binary ties
    for bound in (1e-290, 1e290):
        values += [bound, np.nextafter(bound, 0.0), np.nextafter(bound, np.inf)]
    values = np.array(values)
    with np.errstate(over="ignore"):  # the largest double steps up to inf
        values = np.concatenate(
            [values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)]
        )
    return np.concatenate([values, -values]).tolist()


def _assert_formats_like_python(values) -> None:
    """``values`` is one column of numbers or a list of equal-length rows."""
    table = np.array(values, dtype=float).reshape(len(values), -1)
    lines = ("\n" + ",".join(NUMBER_FORMAT % x for x in row) for row in table.tolist())
    assert _csvout._format_rows(table) == "".join(lines).encode()


def test_hard_cases_format_like_python():
    _assert_formats_like_python(_hard_cases())


def test_decimal_ties_format_like_python():
    # the double nearest a 13-digit tie lies within about 1e-3 of it once
    # scaled, which is where a coarse scaling would round to the wrong side
    rng = np.random.default_rng(29)
    digits = rng.integers(10**12, 10**13, 20000).tolist()
    exponents = rng.integers(-290, 290, 20000).tolist()
    _assert_formats_like_python([float(f"{d}5e{k}") for d, k in zip(digits, exponents)])


def test_digit_split_boundaries_format_like_python():
    # the 13-digit mantissa M is split by floats, floor(M / 1e8) and then by
    # 1e4; check it where a split or its floor could slip: M = 1e12, the ends
    # of the first 1e8 step, multiples of 1e4 and of 1e8, the largest M, and
    # the carry of 9.9999999999995 to the next power of ten
    mantissas = [10**12, 10**12 + 10**8 - 1, 10**12 + 10**8, 10**12 + 10**4 - 1, 10**12 + 10**4]
    mantissas += [1234567890000, 9999999990000, 5000000010000, 2 * 10**12, 1234500000000]
    mantissas += [9999900000000, 9999999900000, 9999999999999]
    exponents = range(-300, 301)
    texts = [f"{mantissa}e{exponent - 12}" for mantissa in mantissas for exponent in exponents]
    texts += [f"{digits}e{exponent - 13}" for digits in (99999999999995, 99999999999999)
              for exponent in exponents]
    values = np.array([float(text) for text in texts])
    values = np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])
    # six cells a row: each value and its two neighbours, with both signs
    _assert_formats_like_python(np.concatenate([values, -values]).reshape(-1, 6).tolist())


# any float, or any 64-bit pattern read as float64: NaN payloads, subnormals, -0.0
_CELLS = st.floats() | st.integers(0, 2**64 - 1).map(
    lambda bits: np.uint64(bits).view(np.float64).item()
)


@settings(deadline=None)
@given(
    st.integers(1, 7).flatmap(
        lambda columns: st.lists(
            st.lists(_CELLS, min_size=columns, max_size=columns), min_size=1, max_size=64
        )
    )
)
def test_every_float_formats_like_python(rows):
    # each cell's text sits behind its own separator, so a layout slip shows
    # in a row of several columns
    _assert_formats_like_python(rows)


def test_each_power_of_ten_is_the_nearest_double():
    # each entry of the powers row, in exact arithmetic: the entry for k is
    # the double nearest 10^k, for every k from _POWERS_FROM to 305
    powers, _, _ = _csvout._tables()
    assert len(powers) == 306 - _csvout._POWERS_FROM
    for k, h in enumerate(powers.tolist(), start=_csvout._POWERS_FROM):
        exact = Fraction(10) ** k
        error = abs(Fraction(h) - exact)
        neighbours = np.nextafter(h, [0.0, np.inf]).tolist()
        assert all(error <= abs(Fraction(n) - exact) for n in neighbours), k


@pytest.mark.parametrize("work", [np.longdouble, np.float64])
def test_powers_of_ten_are_correctly_rounded(work):
    # hi = RN(10^k) keeps the scaled product p = a * hi, rounded once to the
    # working dtype, within _DOUBT p of a * 10^k, the bound _format_rows'
    # rounding test rests on; a dtype wider than float64 keeps it too
    powers, _, _ = _csvout._tables()
    doubt = Fraction(_csvout._DOUBT)
    rng = np.random.default_rng(41)
    for k, h in enumerate(powers.tolist(), start=_csvout._POWERS_FROM):
        mantissas = [1.0, 9.999999999999998, *rng.uniform(1.0, 10.0, 4).tolist()]
        for mantissa in mantissas:
            a = float(f"{mantissa!r}e{12 - k}")  # a * 10^k lies in [1e12, 1e13]
            p = work(a) * work(h)
            error = abs(Fraction(*p.as_integer_ratio()) - Fraction(a) * Fraction(10) ** k)
            assert error <= doubt * Fraction(*p.as_integer_ratio()), (k, a)
