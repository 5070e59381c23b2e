import numpy as np
import pytest

from fastlight import (
    ApproximationWarning,
    NumericalError,
    ParameterError,
    ReducedLine,
    centroid,
    default_grid,
    make_gaussian,
    prepare_input,
    propagate_ideal,
    propagate_lorentzian,
    transmission,
)
from fastlight.pulse_engine import TimeGrid, write_envelope_csv

SIGMA = 28e-6


def _quick_state(t_tilde=0.5, sigma=SIGMA, n_samples=4096, phase=0.0):
    grid = default_grid(sigma, n_samples=n_samples)
    source = make_gaussian(grid, sigma, 0.0, 1.0)
    return source, prepare_input(source, t_tilde, phase)


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


def test_prepare_input_relative_phase():
    _, state = _quick_state(t_tilde=1.0, phase=np.pi / 2)
    mid = state.h.grid.n_samples // 2
    assert state.v.samples[mid] / state.h.samples[mid] == pytest.approx(1j)


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


def test_ideal_delay_when_line_flags_delay(quick_line):
    _, state = _quick_state()
    delayed = ReducedLine(
        t0=quick_line.t0, gamma_prime=quick_line.gamma_prime, advance=False
    )
    out = propagate_ideal(state, delayed)
    assert centroid(out.h).center == pytest.approx(+quick_line.t0, rel=1e-9)


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


def test_lorentzian_pure_phase_conserves_energy(quick_line):
    _, state = _quick_state()
    out = propagate_lorentzian(state, quick_line, include_absorption=False)
    assert out.h.energy() == pytest.approx(state.h.energy(), rel=1e-10)


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


def test_envelope_csv_round_trip(tmp_path):
    grid = default_grid(SIGMA, n_samples=256, span_sigmas=16.0)
    env = make_gaussian(grid, SIGMA, 0.0, 1.0)
    path = tmp_path / "trace.csv"
    write_envelope_csv(env, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t_seconds,re,im,intensity"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (256, 4)
    assert np.allclose(data[:, 0], env.times, rtol=1e-11)
    assert np.allclose(data[:, 1], env.samples.real, rtol=1e-11, atol=1e-300)
    assert np.allclose(data[:, 3], np.abs(env.samples) ** 2, rtol=1e-11, atol=1e-300)
