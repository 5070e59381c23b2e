import math
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
    pulse_engine,
    transmission,
)
from fastlight.atomic_response import transfer_exponent
from fastlight.pulse_engine import NUMBER_FORMAT, Envelope, TimeGrid, write_csv, write_envelope_csv

SIGMA = 28e-6


def _quick_state(t_tilde=0.5, sigma=SIGMA, n_samples=4096):
    grid = default_grid(sigma, n_samples=n_samples)
    source = make_gaussian(grid, sigma, 0.0, 1.0)
    return source, prepare_input(source, t_tilde)


@pytest.mark.parametrize(
    "n_samples,dt", [(100, 1.0), (300, 1.0), (4096, 0.0), (4096, -1.0)]
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
    intensity = [abs(z) ** 2 for z in env.samples.tolist()]
    rows = zip(env.times.tolist(), env.samples.real.tolist(), env.samples.imag.tolist(), intensity)
    assert path.read_bytes() == _rowwise_csv(["t_seconds", "re", "im", "intensity"], rows)


def test_multi_block_table_matches_rowwise_writer(tmp_path):
    rows = 2 * pulse_engine._BLOCK_ROWS + 3
    rng = np.random.default_rng(5)
    columns = {
        "a": np.linspace(-1.0, 1.0, rows),
        "b": rng.standard_normal(rows) * 10.0 ** rng.integers(-200, 200, rows),
        "c": rng.standard_normal(rows),
    }
    columns["a"][pulse_engine._BLOCK_ROWS] = -0.0
    columns["b"][[7, pulse_engine._BLOCK_ROWS - 1]] = [np.nan, -np.inf]
    columns["c"][-1] = -1.5e-123
    path = tmp_path / "table.csv"
    write_csv(path, columns)
    expected = _rowwise_csv(list(columns), zip(*[c.tolist() for c in columns.values()]))
    assert path.read_bytes() == expected


def test_intensity_column_keeps_complex_abs_and_libm_pow(tmp_path):
    rng = np.random.default_rng(9)
    re, im = rng.standard_normal((2, 4000)) * 10.0 ** rng.uniform(-100, 100, (2, 4000))
    assert np.hypot(re, im).tolist() == [abs(complex(r, i)) for r, i in zip(re, im)]
    # libm's pow(h, 2) rounds differently from h * h (numpy's square) for
    # these magnitudes, and the difference shows in the 13 printed digits
    magnitudes = [6.785729742946222e-04, 6.970322278952746e-06, 7.863265370395113e-06,
                  9.637163866954063]
    assert all(NUMBER_FORMAT % (h * h) != NUMBER_FORMAT % h**2 for h in magnitudes)
    grid = TimeGrid(n_samples=256, dt=1.0, t_start=0.0)
    samples = np.zeros(256, dtype=complex)
    samples[: len(magnitudes)] = magnitudes
    path = tmp_path / "trace.csv"
    write_envelope_csv(Envelope(grid, samples), path)
    lines = path.read_text().splitlines()[1 : len(magnitudes) + 1]
    assert [line.split(",")[3] for line in lines] == [NUMBER_FORMAT % h**2 for h in magnitudes]


def test_squares_are_pythons_pow():
    rng = np.random.default_rng(23)
    h = np.abs(rng.standard_normal(10**6)) * 10.0 ** rng.uniform(-140, 140, 10**6)
    twos = 2.0 ** np.arange(-1074, 512)  # subnormals included
    specials = [0.0, 5e-324, 2.2250738585072014e-308, 1e150, 1.3e154, np.nan, np.inf]
    beyond = 10.0 ** rng.uniform(150, 154, 1000)
    h = np.concatenate([h, twos, np.nextafter(twos, 0.0), np.nextafter(twos, np.inf),
                        specials, beyond])
    np.testing.assert_array_equal(pulse_engine._squares(h), [v**2 for v in h.tolist()])


def test_readme_medium_trace_matches_rowwise_writer(tmp_path, demo_spec):
    line = group_advance(demo_spec)
    grid = default_grid(SIGMA, n_samples=1 << 16)
    state = prepare_input(make_gaussian(grid, SIGMA, 0.0, 1.0), transmission(line))
    selected = post_select(propagate_lorentzian(state, line), np.deg2rad(-40.0)).envelope
    path = tmp_path / "trace.csv"
    write_envelope_csv(selected, path)
    samples = selected.samples.tolist()
    intensity = [abs(z) ** 2 for z in samples]
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
    table = np.array(values, dtype=float).reshape(-1, 1)
    expected = "".join("\n" + NUMBER_FORMAT % x for x in values).encode()
    assert pulse_engine._format_rows(table) == expected


def test_hard_cases_format_like_python():
    _assert_formats_like_python(_hard_cases())


def test_decimal_ties_format_like_python():
    # the double nearest a 13-digit tie lies within about 1e-3 of it once
    # scaled, which is where a coarse scaling would round to the wrong side
    rng = np.random.default_rng(29)
    digits = rng.integers(10**12, 10**13, 20000).tolist()
    exponents = rng.integers(-290, 290, 20000).tolist()
    _assert_formats_like_python([float(f"{d}5e{k}") for d, k in zip(digits, exponents)])


@settings(deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_every_float_formats_like_python(values):
    _assert_formats_like_python(values)


def test_power_pairs_are_exact():
    (hi, hi_h, hi_l, lo), _, _ = pulse_engine._tables()
    for k, pair in enumerate(zip(hi, hi_h, hi_l, lo), start=pulse_engine._POWERS_FROM):
        h, h_h, h_l, low = (float(v) for v in pair)
        exact = Fraction(10) ** k
        error = abs(Fraction(h) - exact)
        neighbours = np.nextafter(h, [0.0, np.inf]).tolist()
        assert all(error <= abs(Fraction(n) - exact) for n in neighbours), k
        assert low == float(exact - Fraction(h)), k  # Fraction to float rounds once
        mantissa, exponent = math.frexp(h)
        assert h_h == math.ldexp(math.floor(math.ldexp(mantissa, 26)), exponent - 26), k
        assert Fraction(h_h) + Fraction(h_l) == Fraction(h), k


@pytest.mark.parametrize("work", [np.longdouble, np.float64])
def test_powers_of_ten_are_correctly_rounded(work):
    # hi + lo, rounded once to the working dtype, is the nearest value to 10^k
    # there: the pair carries at least as much precision as a longdouble
    (hi, _, _, lo), _, _ = pulse_engine._tables()
    for k, (h, low) in enumerate(zip(hi, lo), start=pulse_engine._POWERS_FROM):
        power = work(h) + work(low)
        exact = Fraction(10) ** k
        neighbours = [np.nextafter(power, work(0.0)), np.nextafter(power, work(np.inf))]
        error = abs(Fraction(*power.as_integer_ratio()) - exact)
        assert all(error <= abs(Fraction(*n.as_integer_ratio()) - exact) for n in neighbours), k
