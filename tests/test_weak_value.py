import numpy as np
import pytest

from fastlight import (
    ParameterError,
    ReducedLine,
    centroid,
    default_grid,
    make_gaussian,
    post_select,
    prepare_input,
    propagate_ideal,
    transmission,
    weak_value,
)
from fastlight.weak_value import total_transmission
from oracles import two_gaussian_centroid

DEG = np.pi / 180.0


def _selected_centroid(t0, sigma, theta, t_tilde):
    """Full pipeline arrival centroid for the ideal-shift model."""
    line = ReducedLine(t0=t0, gamma_prime=-np.log(t_tilde) / (2 * t0))
    grid = default_grid(sigma)
    state = prepare_input(make_gaussian(grid, sigma, 0.0, 1.0), t_tilde)
    out = propagate_ideal(state, line)
    return centroid(post_select(out, theta).envelope).center


def test_weak_value_trivial_angles():
    assert weak_value(0.0) == 1.0
    assert abs(weak_value(np.pi / 2)) < 1e-15


def test_weak_value_frozen_points():
    assert weak_value(-40 * DEG) == pytest.approx(6.215026151380669, rel=1e-12)
    assert weak_value(-50 * DEG) == pytest.approx(-5.215026151380669, rel=1e-9)


@pytest.mark.parametrize("theta_deg", [5.0, 10.0, 30.0, 44.0, 60.0, 85.0])
def test_weak_value_complementarity(theta_deg):
    theta = theta_deg * DEG
    assert weak_value(theta) + weak_value(np.pi / 2 - theta) == pytest.approx(
        1.0, rel=1e-12
    )


def test_weak_value_domain():
    with pytest.raises(ParameterError, match="dark port"):
        weak_value(-np.pi / 4)
    with pytest.raises(ParameterError):
        weak_value(-np.pi / 2)
    with pytest.raises(ParameterError):
        weak_value(2.0)
    with pytest.raises(ParameterError):
        weak_value(np.nan)
    # a hair off the dark port is legal and large
    assert abs(weak_value(-np.pi / 4 + 1e-6)) > 1e5


def test_post_select_at_zero_passes_h_exactly(quick_line):
    grid = default_grid(28e-6)
    state = prepare_input(make_gaussian(grid, 28e-6, 0.0, 1.0), 0.5)
    selected = post_select(state, 0.0)
    assert selected.envelope is state.h


def test_dark_port_nulls_balanced_input():
    grid = default_grid(28e-6)
    state = prepare_input(make_gaussian(grid, 28e-6, 0.0, 1.0), 1.0)
    selected = post_select(state, -np.pi / 4)
    peak_in = np.max(np.abs(state.h.samples))
    assert np.max(np.abs(selected.envelope.samples)) < 1e-15 * peak_in
    assert selected.throughput < 1e-30


def test_throughput_matches_closed_form(quick_line):
    # the closed form assumes perfectly overlapping envelopes; the shifted
    # pulses only overlap as exp(-t0^2/8 sigma^2), and near the dark port
    # that correction is amplified by the small projected energy, so test
    # deep in the weak regime (t0/sigma = 1e-3)
    t_tilde = transmission(quick_line)
    sigma = 280e-6
    grid = default_grid(sigma)
    state = prepare_input(make_gaussian(grid, sigma, 0.0, 1.0), t_tilde)
    out = propagate_ideal(state, quick_line)
    for theta_deg in (0.0, 30.0, -40.0, -50.0):
        selected = post_select(out, theta_deg * DEG)
        assert selected.throughput == pytest.approx(
            total_transmission(t_tilde, theta_deg * DEG), rel=2e-5
        )


def test_total_transmission_frozen_values():
    assert total_transmission(0.5, 0.0) == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert total_transmission(0.5, 30 * DEG) == pytest.approx(0.622008467928, rel=1e-9)


def test_centroid_matches_two_gaussian_closed_form():
    t0, sigma, t_tilde = 0.28e-6, 28e-6, 0.5
    for theta_deg in (-40.0, -50.0, -43.0, 20.0):
        theta = theta_deg * DEG
        measured = _selected_centroid(t0, sigma, theta, t_tilde)
        expected = two_gaussian_centroid(np.cos(theta), np.sin(theta), t0, sigma)
        assert abs(measured - expected) < 1e-6 * t0


def test_weak_limit_and_quadratic_convergence():
    sigma, t_tilde = 28e-6, 0.5
    theta = -40 * DEG
    a_w = weak_value(theta)
    # first order: centroid -> -A_w t0, here within 2%
    t0 = 1e-3 * sigma
    measured = _selected_centroid(t0, sigma, theta, t_tilde)
    assert measured == pytest.approx(-a_w * t0, rel=0.02)
    # discrepancy from the first-order value shrinks ~4x when t0 halves
    err = [
        abs(_selected_centroid(t, sigma, theta, t_tilde) + a_w * t)
        for t in (t0, t0 / 2)
    ]
    assert err[0] / err[1] >= 3.5
