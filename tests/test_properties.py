"""Property tests: invariants that hold for every input, not just frozen ones."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastlight import (
    ReducedLine,
    default_grid,
    fit_gaussian,
    make_gaussian,
    post_select,
    prepare_input,
    propagate_ideal,
    weak_value,
)

# every analyzer angle in (-pi/2, pi/2], at least 1e-3 rad off the dark port
angles = st.floats(-math.pi / 2, math.pi / 2, exclude_min=True).filter(
    lambda theta: abs(theta + math.pi / 4) >= 1e-3
)


@given(angles)
def test_weak_values_of_complementary_angles_sum_to_one(theta):
    # A_w has period pi, so pi/2 - theta is brought back into (-pi/2, pi/2]
    partner = math.pi / 2 - theta
    if partner > math.pi / 2:
        partner -= math.pi
    a, b = weak_value(theta), weak_value(partner)
    # each term carries a relative rounding error of order ulp * |A_w|
    assert a + b == pytest.approx(1.0, abs=1e-14 * (1.0 + a * a + b * b))


@settings(max_examples=50, deadline=None)
@given(
    theta=angles,
    t_tilde=st.floats(1e-3, 0.999),
    phase=st.floats(-math.pi, math.pi),
    shift_sigmas=st.just(0.0) | st.floats(1e-3, 3.0),
)
def test_post_selected_throughput_is_at_most_one(theta, t_tilde, phase, shift_sigmas):
    sigma = 1.0
    state = prepare_input(make_gaussian(default_grid(sigma), sigma, 0.0, 1.0), t_tilde, phase)
    if shift_sigmas > 0.0:
        t0 = shift_sigmas * sigma
        line = ReducedLine(t0=t0, gamma_prime=-math.log(t_tilde) / (2 * t0))
        state = propagate_ideal(state, line)
    selected = post_select(state, theta)
    # |cos h + sin v|^2 <= |h|^2 + |v|^2 pointwise, so only rounding can
    # push the unclamped ratio past 1
    assert selected.envelope.energy() / state.reference_energy <= 1.0 + 1e-12
    assert 0.0 <= selected.throughput <= 1.0


@settings(max_examples=50, deadline=None)
@given(
    log2_samples=st.integers(8, 14),
    sigma=st.floats(1e-9, 1e3),
    span_sigmas=st.floats(20.0, 40.0),
    offset=st.floats(-1.0, 1.0),
    amplitude=st.floats(1e-3, 1e3),
)
def test_fit_recovers_a_sampled_gaussian(log2_samples, sigma, span_sigmas, offset, amplitude):
    grid = default_grid(sigma, 1 << log2_samples, span_sigmas)
    # inside the middle half of the grid and 8 sigma clear of both ends
    center = 0.99 * offset * min(span_sigmas / 4, span_sigmas / 2 - 8.0) * sigma
    fit = fit_gaussian(make_gaussian(grid, sigma, center, amplitude))
    assert fit.center == pytest.approx(center, abs=1e-9 * sigma)
    assert fit.width == pytest.approx(sigma, rel=1e-9)
    assert fit.amplitude == pytest.approx(amplitude**2, rel=1e-9)
    assert np.isfinite(fit.residual_rms) and fit.residual_rms < 1e-9
