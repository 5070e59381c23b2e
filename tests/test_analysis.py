"""Arrival-time estimation and the loss-vs-advance trade-off."""

import functools
import importlib.machinery
import importlib.util
import math
import pickle
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares, leastsq

from fastlight import (
    FitFailureError,
    MediumSpec,
    NumericalError,
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
    weak_value,
)
from fastlight import analysis
from fastlight.cli import _propagated_state
from fastlight.config import LineConfig, MediumConfig, RunConfig, default_config, parse_config
from fastlight.errors import check_angle_deg
from fastlight.pulse_engine import Envelope, PolarizedPulse, TimeGrid
from fastlight.weak_value import post_select, total_transmission
from oracles import brute_force_best_advance

# best normalized advance 2 gamma' t_wva and its analyzer angle, frozen from
# the root of G(c) (confirmed against the 50-digit reference and the
# dense-grid oracle below)
T_WVA_NORMALIZED = {
    0.02: 4.461402865354,
    0.05: 3.033028039783,
    0.1: 2.197287712771,
    0.5: 0.638284155326,
    0.9: 0.102967971064,
}
THETA_OPT_DEG = {
    0.02: -22.70741943792,
    0.05: -10.33080250057,
    0.1: 0.2905759918001,
    0.5: 28.32038005732,
    0.9: 42.06515030201,
}
CROSSOVER_TRANSMISSION = 0.056596043051963384

QUICK_START_LINE = {"line": {"t0_us": 0.28, "line_center_transmission": 0.5}}

# The physical-mode example of the README.
README_MEDIUM = {
    "beta_rad_per_us": 0.0022,
    "gamma_rad_per_us": 1.2285,
    "Gamma_mhz": 6.0,
    "omega_c_rabi_mhz": 40.0,
    "Delta_mhz": 900.0,
    "length_cm": 10.0,
    "wavelength_nm": 794.98,
}


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


def test_fit_failure_carries_centroid_fallback(monkeypatch):
    out, _ = _distorted_output()
    # one residual evaluation cannot converge: MINPACK stops with status 5
    monkeypatch.setattr(analysis, "_MAX_EVALUATIONS", 1)
    with pytest.raises(FitFailureError, match="MINPACK status 5") as excinfo:
        fit_gaussian(out.h)
    fallback = excinfo.value.fallback
    assert fallback.method == "centroid"
    assert fallback.center == centroid(out.h).center


def test_fit_failure_survives_pickling():
    # a forked sweep-theta process sends its fit failure to the parent as a
    # pickle; both the message and the fallback must come back (the fallback
    # rides in the instance __dict__, which exceptions pickle with their args)
    fallback = centroid(_gaussian_pulse())
    error = pickle.loads(pickle.dumps(FitFailureError("fit failed at -20 deg", fallback=fallback)))
    assert type(error) is FitFailureError
    assert str(error) == "fit failed at -20 deg"
    assert error.fallback == fallback
    assert pickle.loads(pickle.dumps(FitFailureError("no fallback"))).fallback is None


def test_fit_on_distorted_pulse_regression():
    out, line = _distorted_output()
    fit = fit_gaussian(out.h)
    assert -fit.center / line.t0 == pytest.approx(0.5395177052803664, rel=1e-6)
    # distortion leaves a real misfit, but far from a failed fit
    assert 1e-4 < fit.residual_rms < 1e-2
    assert fit.residual_rms == pytest.approx(1.0076448255e-3, rel=1e-4)
    # the skewed tail pulls the centroid and the peak apart
    assert abs(fit.center - centroid(out.h).center) > 0.05 * line.t0


@pytest.mark.parametrize("status", [0, 5, 6, 7, 8])
def test_every_minpack_failure_code_raises_fit_failure(monkeypatch, status):
    lmder = analysis._lmder()

    def solve_then_fail(*args):
        return (*lmder(*args)[:2], status)

    # fit_gaussian looks lmder up through analysis._lmder, so the patch sits there
    monkeypatch.setattr(analysis, "_lmder", lambda: solve_then_fail)
    pulse = _gaussian_pulse()
    with pytest.raises(FitFailureError, match=f"MINPACK status {status}") as excinfo:
        fit_gaussian(pulse)
    assert excinfo.value.fallback == centroid(pulse)


def test_fit_shares_one_read_only_jacobian_per_point(monkeypatch):
    # lmder asks for the Jacobian once per accepted point, always at the point
    # it has just evaluated; every call gets the fit's one Jacobian array,
    # which nobody can write into
    lmder = analysis._lmder()
    evaluated, seen = [], []

    def spy(func, dfun, x0, *rest):
        def residual(p):
            evaluated.append(p.tobytes())
            return func(p)

        def jacobian(p):
            seen.append((p.tobytes(), evaluated[-1], dfun(p)))
            return seen[-1][2]

        return lmder(residual, jacobian, x0, *rest)

    monkeypatch.setattr(analysis, "_lmder", lambda: spy)
    fit_gaussian(_distorted_output()[0].h)  # a misfit that takes several steps
    assert len(seen) >= 2
    assert all(point == last for point, last, _ in seen)
    assert len({point for point, _, _ in seen}) == len(seen)
    assert all(jac is seen[0][2] for _, _, jac in seen)
    assert all(not jac.flags.writeable for _, _, jac in seen)


def _through_leastsq_and_lmder(envelope):
    """``fit_gaussian``'s residual and Jacobian solved by its own ``_lmder``
    call and again by ``scipy.optimize.leastsq``: (x, fvec, nfev, status) of
    each, as bytes where they are arrays."""
    lmder = analysis._lmder()
    calls = []

    def spy(*args):
        calls.append((args, lmder(*args)))
        return calls[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_lmder", lambda: spy)
        try:
            fit_gaussian(envelope)
        except FitFailureError:  # a failure code must match too
            pass
    (args, (x, info, status)), = calls
    residual, jacobian = args[:2]
    x_ls, _, info_ls, _, status_ls = leastsq(
        residual, [1.0, 0.0, 1.0], Dfun=jacobian, col_deriv=True, full_output=True,
        ftol=1e-12, xtol=1e-12, gtol=1e-12, maxfev=analysis._MAX_EVALUATIONS,
    )
    own = (x.tobytes(), info["fvec"].tobytes(), info["nfev"], status)
    return own, (x_ls.tobytes(), info_ls["fvec"].tobytes(), info_ls["nfev"], status_ls)


@functools.cache
def _quick_start_propagated(propagation):
    config = parse_config({**QUICK_START_LINE, "propagation": propagation})
    return _propagated_state(config)[2]


@settings(max_examples=40, deadline=None)
@given(
    theta_deg=st.one_of(st.floats(-85.0, -5.0), st.floats(-45.5, -44.5)),
    propagation=st.sampled_from(["spectral", "ideal"]),
)
@example(theta_deg=-44.51, propagation="spectral")
@example(theta_deg=-45.02, propagation="ideal")
def test_fit_through_lmder_has_leastsqs_bits(theta_deg, propagation):
    # the solver is called as leastsq calls it, without leastsq's own checks
    # at x0: the same x, residual vector, evaluation count and status, bit
    # for bit, on both sides of the dark port and within 0.5 deg of it
    selected = post_select(_quick_start_propagated(propagation), math.radians(theta_deg)).envelope
    own, reference = _through_leastsq_and_lmder(selected)
    assert own == reference


def test_large_grid_fit_through_lmder_has_leastsqs_bits():
    config = parse_config({"medium": README_MEDIUM, "grid": {"n_samples": 1 << 16}})
    _, _, propagated = _propagated_state(config)
    for envelope in (propagated.h, post_select(propagated, math.radians(-44.5)).envelope):
        own, reference = _through_leastsq_and_lmder(envelope)
        assert own == reference


def test_a_missing_minpack_extension_is_an_import_error(monkeypatch, tmp_path):
    # a scipy whose optimize directory lacks the extension: one ImportError
    # naming the directory searched, and no fallback
    spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    spec.submodule_search_locations = [str(tmp_path)]
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec)
    monkeypatch.delitem(sys.modules, "scipy.optimize._minpack", raising=False)
    with pytest.raises(ImportError, match="scipy.optimize._minpack") as excinfo:
        analysis._lmder.__wrapped__()
    assert str(tmp_path / "optimize") in str(excinfo.value)


def _least_squares_fit(envelope):
    """The Gaussian fit solved by least_squares(method="lm"): the same MINPACK
    lmder solve, with the residual and Jacobian written out in full."""
    seed = centroid(envelope)
    y = np.abs(envelope.samples) ** 2
    ymax = float(y.max())
    tau = (envelope.times - seed.center) / seed.width
    yn = y / ymax

    def residual(p):
        a, m, s = p
        return a * np.exp(-((tau - m) ** 2) / (2 * s * s)) - yn

    def jacobian(p):
        a, m, s = p
        u = tau - m
        e = np.exp(-(u**2) / (2 * s * s))
        return np.stack([e, a * e * u / (s * s), a * e * u**2 / (s**3)], axis=1)

    result = least_squares(
        residual,
        [1.0, 0.0, 1.0],
        jac=jacobian,
        method="lm",
        x_scale="jac",
        xtol=1e-12,
        ftol=1e-12,
        gtol=1e-12,
        max_nfev=100,
    )
    assert result.status > 0
    a, m, s = result.x
    rms = float(np.sqrt(np.mean(residual(result.x) ** 2)))
    return seed.center + m * seed.width, abs(s) * seed.width, a * ymax, rms


def test_fit_matches_least_squares_bit_for_bit():
    _, _, quick = _propagated_state(default_config())
    _, _, medium = _propagated_state(parse_config({"medium": README_MEDIUM}))
    envelopes = [quick.h, quick.v, medium.h, medium.v]
    # every 5 deg from -85 to -5, with the dark port replaced by the two
    # angles 0.02 deg either side of it
    angles = [*range(-85, -45, 5), -45.02, -44.98, *range(-40, 0, 5)]
    envelopes += [post_select(quick, math.radians(deg)).envelope for deg in angles]
    envelopes += [post_select(medium, math.radians(deg)).envelope for deg in (-50, -40)]
    assert len(envelopes) == 24
    for envelope in envelopes:
        fit = fit_gaussian(envelope)
        assert (fit.center, fit.width, fit.amplitude, fit.residual_rms) == _least_squares_fit(
            envelope
        )


def test_fit_of_a_large_grid_matches_least_squares_bit_for_bit():
    # fit_gaussian refills its work arrays in place and hands lmder a new
    # residual array on every call; at 2^16 samples a residual buffer that
    # was reused would move residual_rms off least_squares' value
    config = parse_config({"medium": README_MEDIUM, "grid": {"n_samples": 1 << 16}})
    _, _, propagated = _propagated_state(config)
    envelopes = [propagated.h, propagated.v]
    envelopes += [post_select(propagated, math.radians(deg)).envelope for deg in (-44.5, -40, 30)]
    for envelope in envelopes:
        fit = fit_gaussian(envelope)
        assert (fit.center, fit.width, fit.amplitude, fit.residual_rms) == _least_squares_fit(
            envelope
        )


def test_bare_line_advance_value():
    assert t_atom(0.05, 0.5) == pytest.approx(math.log(20.0), rel=1e-12)
    assert t_atom(1.0, 2.0e6) == 0.0
    assert math.copysign(1.0, t_atom(1.0, 2.0e6)) == 1.0  # +0.0, not -log(1) = -0.0


@pytest.mark.parametrize("bad_t", [0.0, -0.1, 1.5, math.nan])
def test_advance_rejects_bad_transmission(bad_t):
    with pytest.raises(ParameterError):
        t_atom(bad_t, 1.0)
    with pytest.raises(ParameterError):
        t_wva(bad_t, 1.0)


@pytest.mark.parametrize("total", [1e-308, 1e-310, 5e-324])
def test_best_advance_refuses_subnormal_transmission(total):
    # (1 - T)/T would overflow: the input is at fault, not the root-find
    with pytest.raises(ParameterError, match=f"got {total!r}$"):
        t_wva(total, 1.0)


def test_best_advance_accepts_smallest_normal_transmission():
    advance, theta = t_wva(sys.float_info.min, 1.0)
    assert math.isfinite(advance) and advance > t_atom(sys.float_info.min, 1.0)
    # the exact angle is -pi/4 + 6e-154, which rounds to float64's -pi/4
    assert -math.pi / 4 <= theta < math.pi / 2


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
    assert advance == pytest.approx(T_WVA_NORMALIZED[total], rel=1e-12)
    assert math.degrees(theta) == pytest.approx(THETA_OPT_DEG[total], rel=1e-12)


def _best_advance_mp(total, mpmath):
    """The objective's maximum over the analyzer angle and its angle, to 50
    digits: max over theta of A_w ln(2 sin^2(theta + pi/4)/T - 1), written
    in theta as the paper has it.  Golden-section search in ln(theta + pi/4)
    over the feasible interval, where the objective is unimodal, to 1e-24.
    The log scale resolves theta + pi/4 down to sqrt(T) near the dark port."""
    with mpmath.workdps(50):
        total = mpmath.mpf(total)
        quarter = mpmath.pi / 4

        def objective(u):
            phi = mpmath.exp(u)
            s = mpmath.sin(phi)
            return mpmath.cos(phi - quarter) / (mpmath.sqrt(2) * s) * mpmath.log(2 * s * s / total - 1)

        root = mpmath.asin(mpmath.sqrt(total))
        a, b = mpmath.log(root), mpmath.log(min(3 * quarter, mpmath.pi - root))
        ratio = (mpmath.sqrt(5) - 1) / 2
        c, d = b - ratio * (b - a), a + ratio * (b - a)
        fc, fd = objective(c), objective(d)
        while b - a > mpmath.mpf(10) ** -24:
            if fc >= fd:
                b, d, fd = d, c, fc
                c = b - ratio * (b - a)
                fc = objective(c)
            else:
                a, c, fc = c, d, fd
                d = a + ratio * (b - a)
                fd = objective(d)
        u = (a + b) / 2
        return objective(u), mpmath.exp(u) - quarter


# log-spaced over every normal T, and 1 - T down to 1e-12
_REFERENCE_TRANSMISSIONS = [
    *np.geomspace(sys.float_info.min, 1.0, 41).tolist(),
    *(1.0 - np.geomspace(1e-12, 0.1, 12)).tolist(),
    0.0566,
    0.999999,
]


def test_best_advance_matches_50_digit_reference():
    # Measured worst cases: 1.2 ulp and 8.6e-17 rad on these rows, 2.4 ulp
    # and 1.7e-16 rad on 1000 random T over the same range.  The bounds
    # leave room for another libm's log1p and arctan.
    mpmath = pytest.importorskip("mpmath")
    advances, angles = t_wva(_REFERENCE_TRANSMISSIONS, 0.5)
    for total, advance, theta in zip(_REFERENCE_TRANSMISSIONS, advances, angles):
        exact, exact_theta = _best_advance_mp(total, mpmath)
        if total == 1.0:
            assert (advance, theta) == (0.0, math.pi / 4)
            continue
        assert abs(advance - exact) <= 4 * np.spacing(advance), total
        assert abs(theta - exact_theta) <= 4e-16, total


def test_crossover_matches_50_digit_root():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        root = mpmath.findroot(
            lambda total: _best_advance_mp(total, mpmath)[0] + mpmath.log(total), 0.0566
        )
        assert abs(crossover(1.0) - root) <= 1e-14 * root


def _bits(result):
    return tuple(float(x).hex() for x in result)


def test_crossover_carries_t_wva_at_its_root_bit_for_bit():
    # T* is one float at every rate, and t_wva at it scales with the rate:
    # its angle keeps its bits and its advance is the normalized one over 2 gamma'
    normalized, theta = t_wva(crossover(0.5), 0.5)
    for rate in [1.0, 1.24e6, 1e-250, 1e250, default_config().reduced_line().gamma_prime]:
        tstar = crossover(rate)
        assert _bits([tstar]) == _bits([CROSSOVER_TRANSMISSION])
        assert _bits(t_wva(tstar, rate)) == _bits((normalized / (2 * rate), theta))


_GRID_CELLS = 2000


def _full_grid(total):
    """The objective on 2000 evenly spaced angles phi = theta + pi/4 across
    the feasible interval, and those phi: the reference the root-find must
    match or beat.  A_w ln(2 sin^2(phi)/T - 1) is written in phi alone, as
    (1 + cot phi)/2 log1p(2((1 - T) - cos^2 phi)/T), so each cell is the
    objective at its float phi to rounding; cells that round outside the
    interval read -inf.  T = 1 has the one feasible angle phi = pi/2."""
    if total == 1.0:
        return np.zeros(1), np.array([math.pi / 2])
    rest = 1.0 - total
    lo = math.atan2(math.sqrt(total), math.sqrt(rest))
    phi = np.linspace(lo, min(3 * math.pi / 4, math.pi - lo), _GRID_CELLS)
    cos = np.cos(phi)
    arg = 2 * (rest - cos * cos) / total
    feasible = arg >= 0.0
    h = np.log1p(np.where(feasible, arg, 0.0))
    return np.where(feasible, (1.0 + cos / np.sin(phi)) / 2 * h, -np.inf), phi


def _assert_matches_full_grid(total, advance, theta):
    # the normalized advance is at least every cell, and the angle lies
    # between the grid winner's neighbours, where a unimodal objective peaks
    values, phi = _full_grid(total)
    k = int(np.argmax(values))
    assert advance >= values[k], total
    lo, hi = phi[max(k - 1, 0)], phi[min(k + 1, len(phi) - 1)]
    assert lo - math.pi / 4 <= theta <= hi - math.pi / 4, total


def _objective(theta, total):
    """A_w ln(2 sin^2(phi)/T - 1) at one angle, in math's scalars, with phi =
    theta + pi/4 and A_w = (1 + cot phi)/2.  The log's argument is 1 +
    2 (sin^2 phi - T)/T; the difference is formed from sin^2 phi below T =
    1/2 and as (1 - T) - cos^2 phi above, where neither cancels."""
    phi = theta + math.pi / 4
    cos, sin = math.cos(phi), math.sin(phi)
    excess = sin * sin - total if total < 0.5 else (1.0 - total) - cos * cos
    return (1.0 + cos / sin) / 2 * math.log1p(2 * excess / total)


@pytest.mark.parametrize("total", [1e-4, 0.005, 0.0566, 0.5, 0.95, 0.999999])
def test_vectorised_scan_matches_scalar_objective(total):
    # the table's advance is the scalar objective at the table's angle
    advances, angles = t_wva([total], 0.5)
    np.testing.assert_array_max_ulp(advances[0], _objective(float(angles[0]), total), maxulp=4)


def test_search_matches_full_grid_on_log_spaced_transmissions():
    totals = np.geomspace(1e-8, 1 - 1e-6, 3000).tolist()
    for total, advance, theta in zip(totals, *t_wva(totals, 0.5)):
        _assert_matches_full_grid(total, advance, theta)


@pytest.mark.parametrize("k", range(6, 16))
def test_search_matches_full_grid_next_to_unit_transmission(k):
    total = 1 - 10.0**-k
    _assert_matches_full_grid(total, *t_wva(total, 0.5))


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 1.0, exclude_min=True))
def test_search_matches_full_grid_on_drawn_transmissions(total):
    if total < sys.float_info.min:
        with pytest.raises(ParameterError, match="must be a normal float"):
            t_wva(total, 0.5)
    else:
        _assert_matches_full_grid(total, *t_wva(total, 0.5))


@pytest.mark.parametrize(
    "total", [1e-24, 1e-12, 1e-8, 1e-4, 0.0566, 0.5, 0.999, 1 - 1e-9, 1 - 2.0**-53]
)
def test_rounding_bound_covers_every_cell(total):
    # t_wva's rounding bound, 4 ulp of its advance, covers every cell: no
    # angle of the full grid has an exact objective above the advance plus
    # the bound, and where a cell reads infeasible the exact objective lies
    # below the bound.  Exact: 40 digits at the cell's float phi.
    mpmath = pytest.importorskip("mpmath")
    advance, _ = t_wva(total, 0.5)
    bound = 4 * np.spacing(advance)
    values, phi = _full_grid(total)
    with mpmath.workdps(40):
        for angle, value in zip(phi[::5], values[::5]):
            angle = mpmath.mpf(float(angle))
            s = mpmath.sin(angle)
            exact = (1 + mpmath.cot(angle)) / 2 * mpmath.log(2 * s * s / total - 1)
            assert exact <= advance + bound, (total, float(angle))
            if not math.isfinite(value):
                assert exact <= bound, (total, float(angle))


# T = 1, the smallest normal float, rows near the dark port and rows next to
# 1 along with everyday transmissions
_EDGE_TRANSMISSIONS = [1.0, sys.float_info.min, 1e-300, 1e-30, 1e-26, 1e-16, 1 - 1e-12, 1 - 2.0**-53]
_TABLE_TRANSMISSIONS = st.one_of(
    st.floats(sys.float_info.min, 1.0),
    st.floats(-307.0, 0.0).map(lambda exponent: 10.0**exponent),
    st.floats(1.0, 16.0).map(lambda exponent: 1.0 - 10.0**-exponent),
    st.sampled_from(_EDGE_TRANSMISSIONS),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.floats(0.0, 1.0, exclude_min=True), _TABLE_TRANSMISSIONS))
def test_no_transmission_raises_a_floating_point_warning(total):
    # pyproject.toml's filterwarnings = ["error"] turns numpy's overflow,
    # division and invalid-value warnings into failures
    if total < sys.float_info.min:
        with pytest.raises(ParameterError, match="must be a normal float"):
            t_wva(total, 0.5)
        return
    advance, theta = t_wva(total, 0.5)
    assert 0.0 <= advance < math.inf and -math.pi / 4 <= theta <= math.pi / 4


@settings(max_examples=150, deadline=None)
@given(st.lists(_TABLE_TRANSMISSIONS, min_size=1, max_size=8))
@example([sys.float_info.min, 1 - 2.0**-53, 1.0])
def test_table_matches_one_call_per_transmission_bit_for_bit(totals):
    totals = totals + totals[: len(totals) // 2]  # duplicates in every longer table
    advances, angles = t_wva(totals, 1.3e6)
    assert advances.dtype == angles.dtype == np.float64
    table = [_bits(row) for row in zip(advances, angles)]
    assert table == [_bits(t_wva(total, 1.3e6)) for total in totals]
    # crossover's walk runs _optimum on numpy scalars
    rows = [_bits(row) for row in zip(*analysis._optimum(np.array(totals)))]
    assert rows == [_bits(analysis._optimum(np.float64(total))) for total in totals]


def test_table_search_picks_the_full_grid_winner_and_its_neighbours():
    totals = [*_EDGE_TRANSMISSIONS, *np.geomspace(1e-12, 1 - 1e-9, 300).tolist()]
    for total, advance, theta in zip(totals, *t_wva(totals, 0.5)):
        _assert_matches_full_grid(total, advance, theta)


@pytest.mark.parametrize("totals", [[1e-30], [1e-30, 1e-300], []])
def test_table_search_of_whole_grid_rows_alone(totals):
    # tables of rows next to the dark port alone: each row has its own
    # call's bits and matches its full grid
    advances, angles = t_wva(totals, 0.5)
    assert len(advances) == len(angles) == len(totals)
    for total, advance, theta in zip(totals, advances, angles):
        assert _bits((advance, theta)) == _bits(t_wva(total, 0.5)), total
        _assert_matches_full_grid(total, advance, theta)


_BAD_TRANSMISSIONS = st.one_of(
    st.floats(0.0, sys.float_info.min, exclude_max=True),
    st.floats(max_value=0.0, allow_nan=False),
    st.floats(min_value=1.0, exclude_min=True),
    st.just(math.nan),
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(_TABLE_TRANSMISSIONS, max_size=5),
    st.lists(_BAD_TRANSMISSIONS, min_size=1, max_size=3),
    st.randoms(use_true_random=False),
)
def test_table_raises_what_its_first_bad_transmission_raises(good, bad, rng):
    totals = good + bad
    rng.shuffle(totals)
    first = next(total for total in totals if not sys.float_info.min <= total <= 1.0)
    with pytest.raises(ParameterError) as alone:
        t_wva(first, 0.5)
    with pytest.raises(ParameterError) as table:
        t_wva(totals, 0.5)
    assert str(table.value) == str(alone.value)


@pytest.mark.parametrize(
    "table",
    [[[0.5]], [[0.5], 0.3], [0.3, [0.5, 0.2]], np.array([[0.5]])],
    ids=["nested", "ragged_first", "ragged_last", "2d_array"],
)
def test_table_that_is_not_1d_is_refused(table):
    with pytest.raises(ParameterError) as excinfo:
        t_wva(table, 0.5)
    assert str(excinfo.value) == "transmission: must be a number or a 1-d sequence of numbers"


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: t_wva([0.5, "a"], 1), "transmission"),
        (lambda: t_wva("abc", 1), "transmission"),
        (lambda: t_wva([None], 1), "transmission"),
        (lambda: t_wva(0.5, "x"), "gamma_prime"),
        (lambda: t_atom("a", 1), "transmission"),
        (lambda: crossover(None), "gamma_prime"),
        (lambda: weak_value("a"), "theta"),
        (lambda: weak_value(None), "theta"),
        (lambda: ReducedLine("a", 1.0), "t0"),
        (lambda: default_grid(None), "sigma"),
        (lambda: total_transmission(None, 0.1), "t_tilde"),
        (lambda: check_angle_deg("theta_list_deg", "a"), "theta_list_deg"),
        (lambda: RunConfig(line=LineConfig(0.28, 1.2), theta_list_deg=("a",)), "theta_list_deg"),
        (lambda: MediumSpec(1.0, 0.01, 1.0, 0.2, "a", 0.0, 1e5), "Delta"),
        (lambda: MediumSpec(1.0, 0.01, 1.0, 0.2, None, 0.0, 1e5), "Delta"),
        (lambda: TimeGrid(4096, "a", 0.0), "dt"),
        (lambda: TimeGrid(4096, 1e-9, None), "t_start"),
        (lambda: default_grid(1e-6, 4096, "a"), "span_sigmas"),
        (lambda: make_gaussian(default_grid(1e-6), 1e-6, "a", 1.0), "center"),
        (lambda: LineConfig("a", 1.2), "t0_us"),
        (lambda: MediumConfig(0.0022, 1.2, 37.7, 251.3, None, 0.1, 2.4e9), "Delta_rad_per_us"),
        (lambda: PolarizedPulse(*[make_gaussian(default_grid(1e-6), 1e-6, 0.0, 1.0)] * 2, "a"),
         "reference_energy"),
    ],
    ids=[
        "t_wva_row", "t_wva_string", "t_wva_none_row", "t_wva_rate", "t_atom", "crossover",
        "weak_value_string", "weak_value_none", "reduced_line", "default_grid",
        "total_transmission", "angle_deg", "run_config_angle", "medium_delta_string",
        "medium_delta_none", "grid_step", "grid_start", "grid_span_sigmas", "gaussian_center",
        "line_config", "medium_config", "polarized_pulse",
    ],
)
def test_a_non_number_is_refused_by_name(call, name):
    # every check asks errors.check_number first; a value that cannot be
    # compared with a number is refused by name, not left to a TypeError
    with pytest.raises(ParameterError, match=f"^{name}: must "):
        call()


def test_empty_table_gives_empty_arrays():
    advances, angles = t_wva([], 1.0)
    assert advances.shape == angles.shape == (0,)


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
    assert c == pytest.approx(CROSSOVER_TRANSMISSION, rel=1e-14)
    assert crossover(2.0e6) == c


@pytest.mark.parametrize("rate", [5e-324, 5e-309, 1e308, sys.float_info.max])
def test_advance_refuses_rate_out_of_float_range(rate):
    # -ln(T) / (2 gamma') would overflow, or 2 gamma' would, and the
    # advance round to 0
    with pytest.raises(ParameterError, match=r"^gamma_prime: .* out of float range$"):
        t_atom(0.02, rate)
    with pytest.raises(ParameterError, match=r"^gamma_prime: .* out of float range$"):
        t_wva(0.02, rate)


def test_advances_keep_their_bits_inside_float_range():
    assert t_atom(1.0, 1e-300) == 0.0 and t_wva(1.0, 1e308) == (0.0, math.pi / 4)
    assert t_atom(0.02, 1e300) == -math.log(0.02) / 2e300
    assert t_wva(0.02, 1e-300)[0] == t_wva(0.02, 1.0)[0] * 2 / 2e-300


def test_crossover_needs_one_bracket_at_every_rate():
    # Both advances scale as 1/gamma', and the root is found in normalized
    # units, so it has the same bits for every positive gamma'; at the
    # extremes the advances there leave float range, and t_wva refuses
    # that gamma' as an input.
    c = crossover(1.0)
    for exponent in range(-300, 301, 25):
        assert crossover(10.0**exponent) == c, exponent
    for extreme in (5e-324, 1e-320, 1e308, sys.float_info.max):
        assert crossover(extreme) == c
        with pytest.raises(ParameterError, match=r"^gamma_prime: .* out of float range$"):
            t_wva(crossover(extreme), extreme)




def _float_bits(x):
    return int(np.float64(x).view(np.int64))


def _bits_float(i):
    return float(np.int64(i).view(np.float64))


@functools.cache
def _bisected_root():
    """The root of f*(T) + ln T by plain bisection over the float bits of T
    in [1e-3, 0.5], one scalar t_wva call per gap, made in the order the
    bisection asks for it; at gamma' = 1/2 t_wva returns the normalized
    advance f*.  The bisection ends on two adjacent floats and keeps the one
    whose gap is nearer 0, the upper one on a tie."""

    def gap(total):
        return t_wva(total, 0.5)[0] + math.log(total)

    lo, hi = _float_bits(1e-3), _float_bits(0.5)
    if not gap(_bits_float(lo)) > 0.0 >= gap(_bits_float(hi)):
        raise NumericalError("advance gap does not change sign")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if gap(_bits_float(mid)) > 0.0:
            lo = mid
        else:
            hi = mid
    lo, hi = _bits_float(lo), _bits_float(hi)
    return lo if abs(gap(lo)) < abs(gap(hi)) else hi


def _sequential_crossover(gamma_prime):
    """crossover as a plain bisection: the reference for the Newton root.
    The root is found in normalized units, so it is the same at every
    gamma'."""
    return _bisected_root()


_CROSSOVER_RATES = [
    *(10.0**exponent for exponent in range(-300, 301, 25)),
    1.0,
    3.3,
    1.24e6,
    default_config().reduced_line().gamma_prime,
]
_OUT_OF_RANGE_RATES = [5e-324, 1e-320, 1e308, sys.float_info.max]


def _crossover_outcome(function, rate):
    """The root's bits and those of t_wva at it, or the message t_wva refuses the rate with."""
    root = function(rate)
    try:
        return _bits((root, *t_wva(root, rate)))
    except ParameterError as exc:
        return str(exc)


@pytest.mark.parametrize("rate", [*_CROSSOVER_RATES, *_OUT_OF_RANGE_RATES])
def test_crossover_matches_sequential_bisection_bit_for_bit(rate):
    assert _bits([crossover(rate)]) == _bits([_sequential_crossover(rate)])
    assert _crossover_outcome(crossover, rate) == _crossover_outcome(_sequential_crossover, rate)
    if rate in _OUT_OF_RANGE_RATES:
        assert "out of float range" in _crossover_outcome(crossover, rate)


def _array_walk(gamma_prime):
    """crossover's Newton walk as it was written on one-element arrays: the
    reference for the walk on numpy scalars."""
    t = np.array([0.05])
    for _ in range(5):
        normalized, _, c = analysis._optimum(t)
        z = t * (1.0 + c * c)
        t = t - (normalized + np.log(t)) * t / (1.0 - (1.0 + c) / (2.0 - z))
    normalized, theta, _ = analysis._optimum(t)
    return t[0], analysis._seconds(float(normalized[0]), gamma_prime), theta[0]


@pytest.mark.parametrize("rate", [1.0, 1.24e6])
def test_scalar_walk_matches_array_walk_bit_for_bit(rate):
    tstar = crossover(rate)
    assert _bits((tstar, *t_wva(tstar, rate))) == _bits(_array_walk(rate))


@pytest.mark.parametrize("rate", _OUT_OF_RANGE_RATES)
def test_numpy_scalar_rate_is_refused_like_a_float(rate):
    # 2 gamma' overflows at the top rates: on a numpy scalar that warns,
    # and the message would print np.float64(...)
    for function in (
        lambda gp: t_atom(0.02, gp),
        lambda gp: t_wva(0.02, gp),
        lambda gp: t_wva(crossover(gp), gp),
    ):
        with pytest.raises(ParameterError) as as_float:
            function(rate)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError) as as_numpy:
                function(np.float64(rate))
        assert str(as_numpy.value) == str(as_float.value)
        assert str(as_float.value) == f"gamma_prime: {rate!r} rad/s puts the advance out of float range"


@pytest.mark.parametrize("rate", [1.0, 1.24e6, np.float64(1.24e6)])
def test_no_numpy_scalar_leaks_out(rate):
    tstar = crossover(rate)
    results = [tstar, *t_wva(tstar, rate), *t_wva(np.float64(tstar), rate)]
    assert all(type(x) is float for x in results)
    assert "np." not in repr(results)
