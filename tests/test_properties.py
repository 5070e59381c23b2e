"""Property tests: invariants that hold for every input, not just frozen ones."""

import json
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
    parse_config,
    post_select,
    prepare_input,
    propagate_ideal,
    propagate_lorentzian,
    serialize_config,
    weak_value,
)
from fastlight.config import GridConfig, LineConfig, MediumConfig, PulseConfig, RunConfig
from fastlight.pulse_engine import Envelope

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
    shift_sigmas=st.just(0.0) | st.floats(1e-3, 3.0),
)
def test_post_selected_throughput_is_at_most_one(theta, t_tilde, shift_sigmas):
    sigma = 1.0
    state = prepare_input(make_gaussian(default_grid(sigma), sigma, 0.0, 1.0), t_tilde)
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


@settings(max_examples=30, deadline=None)
@given(
    shift=st.integers(-512, 512),  # up to 4 sigma: the output stays clear of the edges
    gamma_sigma=st.floats(2.0, 50.0),
    t_tilde=st.floats(0.05, 0.99),
)
def test_lorentzian_propagation_commutes_with_a_circular_shift(shift, gamma_sigma, t_tilde):
    sigma = 1.0
    grid = default_grid(sigma)
    pulse = make_gaussian(grid, sigma, 0.0, 1.0)
    shifted = Envelope(grid, np.roll(pulse.samples, shift))
    gamma_prime = gamma_sigma / sigma
    line = ReducedLine(t0=-math.log(t_tilde) / (2 * gamma_prime), gamma_prime=gamma_prime)
    out = propagate_lorentzian(prepare_input(pulse, t_tilde), line)
    out_shifted = propagate_lorentzian(prepare_input(shifted, t_tilde), line)
    peak = np.max(np.abs(out.h.samples))
    assert np.allclose(
        out_shifted.h.samples, np.roll(out.h.samples, shift), rtol=0.0, atol=1e-13 * peak
    )


@settings(max_examples=30, deadline=None)
@given(
    k=st.integers(-40, 60),
    theta=angles.filter(lambda theta: abs(theta + math.pi / 4) >= 0.02),
)
def test_propagation_is_linear_in_the_source_amplitude(k, theta):
    # 2^k is exact in float64, and so is every product and sum scaled by it:
    # both arms scale by exactly 2^k, and every ratio keeps its bits
    sigma, t_tilde = 1.0, 0.5
    grid = default_grid(sigma)
    line = ReducedLine(t0=0.01 * sigma, gamma_prime=-math.log(t_tilde) / (2 * 0.01 * sigma))
    scale = 2.0**k
    for propagate in (propagate_lorentzian, propagate_ideal):
        one, scaled = (
            propagate(prepare_input(make_gaussian(grid, sigma, 0.0, amplitude), t_tilde), line)
            for amplitude in (1.0, scale)
        )
        for arm in ("h", "v"):
            assert np.array_equal(getattr(scaled, arm).samples, scale * getattr(one, arm).samples)
        selected_one, selected_scaled = post_select(one, theta), post_select(scaled, theta)
        assert selected_scaled.throughput == selected_one.throughput
        assert fit_gaussian(selected_scaled.envelope).center == fit_gaussian(
            selected_one.envelope
        ).center


@settings(max_examples=50, deadline=None)
@given(
    theta=st.floats(-math.pi / 2, 0.0, exclude_min=True).filter(
        lambda theta: abs(theta + math.pi / 4) >= math.pi / 180
    ),
    t_tilde=st.floats(0.05, 1.0),
)
def test_the_two_analyzer_ports_share_the_energy_of_both_arms(theta, t_tilde):
    # |cos h + sin v|^2 + |-sin h + cos v|^2 = |h|^2 + |v|^2 at every sample;
    # the quick-start's worst relative gap over 400 angles was 6.7e-16, and
    # 1e-14 leaves room for each port's rounded energy and its clamp to 1
    sigma, gamma_prime = 1.0, 35.0  # near the quick-start's gamma' sigma, 34.7
    grid = default_grid(sigma)  # 4096 samples
    line = ReducedLine(t0=(0.0 - math.log(t_tilde)) / (2 * gamma_prime), gamma_prime=gamma_prime)
    state = prepare_input(make_gaussian(grid, sigma, 0.0, 1.0), t_tilde)
    for propagate in (propagate_ideal, propagate_lorentzian):
        out = propagate(state, line)
        both = post_select(out, theta).throughput + post_select(out, theta + math.pi / 2).throughput
        arms = (out.h.energy() + out.v.energy()) / out.reference_energy
        assert both == pytest.approx(arms, rel=1e-14, abs=0.0)


positive = st.floats(1e-6, 1e6)
common_fields = dict(
    pulse=st.builds(PulseConfig, sigma_us=positive, amplitude=positive),
    grid=st.builds(
        GridConfig,
        n_samples=st.integers(8, 22).map(lambda k: 1 << k),
        span_sigmas=st.floats(16.0, 1e3),
    ),
    theta_list_deg=st.lists(st.floats(-90.0, 90.0, exclude_min=True), min_size=1, max_size=4),
    transmission_list=st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=4),
    propagation=st.sampled_from(["spectral", "ideal"]),
    spectrum_points=st.integers(16, 1 << 20),
    output_dir=st.text(st.characters(exclude_characters="\x00"), min_size=1, max_size=8),
)
reduced_configs = st.builds(
    RunConfig,
    line=st.builds(
        LineConfig, t0_us=st.just(0.0) | positive, gamma_prime_rad_per_us=positive
    ),
    **common_fields,
)
physical_configs = st.builds(
    RunConfig,
    medium=st.builds(
        MediumConfig,
        beta_rad_per_us=positive,
        gamma_rad_per_us=positive,
        Gamma_rad_per_us=positive,
        omega_c_rabi_rad_per_us=st.just(0.0) | positive,
        Delta_rad_per_us=st.floats(-1e6, 1e6),
        length_m=st.just(0.0) | positive,
        omega0_rad_per_us=positive,
    ),
    **common_fields,
)


@settings(max_examples=100, deadline=None)
@given(reduced_configs | physical_configs)
def test_config_round_trips_through_its_canonical_json(cfg):
    assert parse_config(json.loads(json.dumps(serialize_config(cfg)))) == cfg
