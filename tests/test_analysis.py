"""Arrival-time estimation and the loss-vs-advance trade-off."""

import math

import numpy as np
import pytest

from fastlight import (
    FitFailureError,
    ParameterError,
    ReducedLine,
    centroid,
    crossover,
    default_grid,
    fit_gaussian,
    make_gaussian,
    prepare_input,
    propagate_lorentzian,
    t_atom,
    t_wva,
    transmission,
)
from fastlight.pulse_engine import Envelope, TimeGrid
from oracles import brute_force_best_advance

# best normalized advance 2 gamma' t_wva and its analyzer angle, frozen from
# the grid+golden optimizer (independently confirmed against the dense-grid
# oracle below)
T_WVA_NORMALIZED = {
    0.02: 4.461402865354,
    0.05: 3.033028039783,
    0.1: 2.197287712771,
    0.5: 0.638284155326,
    0.9: 0.102967971064,
}
THETA_OPT_DEG = {
    0.02: -22.70741961561,
    0.05: -10.33080331566,
    0.1: 0.29057564797,
    0.5: 28.32037963986,
    0.9: 42.06515018735,
}
CROSSOVER_TRANSMISSION = 0.056594612121582


def _gaussian_pulse():
    grid = default_grid(2.0)
    return make_gaussian(grid, 2.0, 3.0, 1.5)


def test_centroid_locates_gaussian():
    est = centroid(_gaussian_pulse())
    assert est.method == "centroid"
    assert est.center == pytest.approx(3.0, abs=2e-9)
    assert est.width == pytest.approx(2.0, rel=1e-6)
    # amplitude is the peak *intensity* and the center sits on a grid point
    assert est.amplitude == pytest.approx(1.5**2, rel=1e-12)
    assert est.residual_rms == 0.0


def test_centroid_rejects_empty_envelope():
    grid = default_grid(2.0)
    empty = Envelope(grid, np.zeros(grid.n_samples, dtype=complex))
    with pytest.raises(ParameterError, match="carries no energy"):
        centroid(empty)


def test_fit_recovers_exact_gaussian():
    est = fit_gaussian(_gaussian_pulse())
    assert est.method == "gaussian_fit"
    assert est.center == pytest.approx(3.0, abs=1e-9)
    assert est.width == pytest.approx(2.0, rel=1e-9)
    assert est.amplitude == pytest.approx(2.25, rel=1e-9)
    assert est.residual_rms < 1e-12


def test_fit_rejects_undersampled_peak():
    grid = TimeGrid(256, 1.0, -128.0)
    narrow = make_gaussian(grid, 1.0, 0.0, 1.0)
    with pytest.raises(ParameterError, match="undersamples"):
        fit_gaussian(narrow)


def _distorted_output():
    # sigma gamma' = 1 clips the spectral wings: the output is visibly
    # non-Gaussian, which separates the fit from the centroid
    gamma_prime = 1.0e6
    sigma = 1.0 / gamma_prime
    line = ReducedLine(t0=0.1 * sigma, gamma_prime=gamma_prime)
    grid = default_grid(sigma)
    state = prepare_input(make_gaussian(grid, sigma, 0.0, 1.0), transmission(line))
    return propagate_lorentzian(state, line), line


def test_fit_failure_carries_centroid_fallback():
    out, _ = _distorted_output()
    with pytest.raises(FitFailureError) as excinfo:
        fit_gaussian(out.h, max_iter=1)
    fallback = excinfo.value.fallback
    assert fallback.method == "centroid"
    assert fallback.center == centroid(out.h).center


def test_fit_on_distorted_pulse_regression():
    out, line = _distorted_output()
    fit = fit_gaussian(out.h)
    assert -fit.center / line.t0 == pytest.approx(0.5395177052803664, rel=1e-6)
    # distortion leaves a real misfit, but far from a failed fit
    assert 1e-4 < fit.residual_rms < 1e-2
    assert fit.residual_rms == pytest.approx(1.0076448255e-3, rel=1e-4)
    # the skewed tail pulls the centroid and the peak apart
    assert abs(fit.center - centroid(out.h).center) > 0.05 * line.t0


def test_bare_line_advance_value():
    assert t_atom(0.05, 0.5) == pytest.approx(math.log(20.0), rel=1e-12)
    assert t_atom(1.0, 2.0e6) == 0.0


@pytest.mark.parametrize("bad_t", [0.0, -0.1, 1.5, math.nan])
def test_advance_rejects_bad_transmission(bad_t):
    with pytest.raises(ParameterError):
        t_atom(bad_t, 1.0)
    with pytest.raises(ParameterError):
        t_wva(bad_t, 1.0)


@pytest.mark.parametrize("bad_rate", [0.0, -2.0, math.inf])
def test_advance_rejects_bad_rate(bad_rate):
    with pytest.raises(ParameterError):
        t_atom(0.5, bad_rate)
    with pytest.raises(ParameterError):
        t_wva(0.5, bad_rate)
    with pytest.raises(ParameterError):
        crossover(bad_rate)


@pytest.mark.parametrize("total", sorted(T_WVA_NORMALIZED))
def test_best_advance_matches_dense_grid(total):
    gamma_prime = 1.3e6
    advance, theta = t_wva(total, gamma_prime)
    ref_value, ref_theta = brute_force_best_advance(total)
    assert advance * 2 * gamma_prime == pytest.approx(ref_value, rel=1e-6)
    assert abs(theta - ref_theta) < 1e-3


@pytest.mark.parametrize("total", sorted(T_WVA_NORMALIZED))
def test_best_advance_frozen_values(total):
    advance, theta = t_wva(total, 0.5)
    assert advance == pytest.approx(T_WVA_NORMALIZED[total], rel=1e-9)
    assert math.degrees(theta) == pytest.approx(THETA_OPT_DEG[total], abs=1e-6)


def test_best_advance_at_unit_transmission():
    assert t_wva(1.0, 2.0) == (0.0, math.pi / 4)


def test_best_advance_scales_inversely_with_rate():
    adv_slow, theta_slow = t_wva(0.1, 1.0)
    adv_fast, theta_fast = t_wva(0.1, 2.0)
    assert theta_slow == theta_fast
    assert adv_slow == pytest.approx(2 * adv_fast, rel=1e-12)


def test_post_selection_wins_only_under_strong_loss():
    assert t_wva(0.02, 1.0)[0] > t_atom(0.02, 1.0)
    assert t_wva(0.5, 1.0)[0] < t_atom(0.5, 1.0)


def test_crossover_frozen_and_rate_independent():
    c = crossover(1.0)
    assert 0.04 < c < 0.06
    assert c == pytest.approx(CROSSOVER_TRANSMISSION, abs=1e-5)
    assert crossover(2.0e6) == c

