"""Arrival-time estimation and the loss-vs-advance trade-off."""

import math
import sys
import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares, leastsq

from fastlight import (
    FitFailureError,
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
)
from fastlight import analysis
from fastlight.analysis import (
    _COARSE,
    _GRID_POINTS,
    _advance_objective,
    _angles,
    _cells,
    _golden_max,
    _grid,
    _grid_ends,
    _winning_cells,
)
from fastlight.cli import _propagated_state
from fastlight.config import default_config, parse_config
from fastlight.pulse_engine import Envelope, TimeGrid
from fastlight.weak_value import post_select
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
    def solve_then_fail(*args, **kwargs):
        return (*leastsq(*args, **kwargs)[:4], status)

    # fit_gaussian imports leastsq when it runs, so the patch sits on scipy
    monkeypatch.setattr(scipy.optimize, "leastsq", solve_then_fail)
    pulse = _gaussian_pulse()
    with pytest.raises(FitFailureError, match=f"MINPACK status {status}") as excinfo:
        fit_gaussian(pulse)
    assert excinfo.value.fallback == centroid(pulse)


def test_fit_shares_one_read_only_jacobian_per_point(monkeypatch):
    # leastsq checks the Jacobian at x0, and lmder then asks for it there
    # again: both calls get the same array, which nobody can write into
    seen = []

    def spy(func, x0, Dfun=None, **kwargs):
        def jacobian(p):
            seen.append((p.tobytes(), Dfun(p)))
            return seen[-1][1]

        return leastsq(func, x0, Dfun=jacobian, **kwargs)

    monkeypatch.setattr(scipy.optimize, "leastsq", spy)
    fit_gaussian(_gaussian_pulse())
    assert len(seen) >= 2 and seen[0][0] == seen[1][0]
    assert seen[1][1] is seen[0][1]
    assert all(not jac.flags.writeable for _, jac in seen)


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


def test_bare_line_advance_value():
    assert t_atom(0.05, 0.5) == pytest.approx(math.log(20.0), rel=1e-12)
    assert t_atom(1.0, 2.0e6) == 0.0


@pytest.mark.parametrize("bad_t", [0.0, -0.1, 1.5, math.nan])
def test_advance_rejects_bad_transmission(bad_t):
    with pytest.raises(ParameterError):
        t_atom(bad_t, 1.0)
    with pytest.raises(ParameterError):
        t_wva(bad_t, 1.0)


@pytest.mark.parametrize("total", [1e-308, 1e-310, 5e-324])
def test_best_advance_refuses_subnormal_transmission(total):
    # 2/T would overflow on the angle grid: the input is at fault, not the search
    with pytest.raises(ParameterError, match=f"got {total!r}$"):
        t_wva(total, 1.0)


def test_best_advance_accepts_smallest_normal_transmission():
    advance, theta = t_wva(sys.float_info.min, 1.0)
    assert math.isfinite(advance) and advance > t_atom(sys.float_info.min, 1.0)
    assert -math.pi / 4 < theta < math.pi / 2


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


@pytest.mark.parametrize("total", [1e-4, 0.005, 0.0566, 0.5, 0.95, 0.999999])
def test_vectorised_scan_matches_scalar_objective(total):
    grid = _grid(total)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = _cells(grid, total)
    scalar = np.array([_advance_objective(float(th), total) for th in grid])
    feasible = np.isfinite(scalar)
    assert np.array_equal(np.isfinite(values), feasible)
    assert np.all(values[~feasible] == -np.inf)
    np.testing.assert_array_max_ulp(values[feasible], scalar[feasible], maxulp=4)
    assert np.argmax(values) == np.argmax(scalar)


def _full_grid_t_wva(total, gamma_prime):
    """t_wva with every one of its 2000 cells scanned: the reference for the
    coarse-and-window search.  Grid, cell values, bracket and refinement are
    written out as the scan of every cell had them."""
    if total == 1.0:
        return 0.0, math.pi / 4
    root = math.asin(math.sqrt(total))
    lo = root - math.pi / 4
    hi = min(math.pi / 2, 3 * math.pi / 4 - root)
    grid = np.linspace(lo, hi, 2000)
    s = np.sin(grid + math.pi / 4)
    arg = 2 * s * s / total - 1.0
    feasible = (s > 0.0) & (arg >= 1.0)
    values = np.full(2000, -math.inf)
    a_w = np.cos(grid[feasible]) / (math.sqrt(2.0) * s[feasible])
    values[feasible] = a_w * np.log(arg[feasible])
    k = int(np.argmax(values))
    best_theta = float(grid[k])
    best_value = _advance_objective(best_theta, total)
    a, b = grid[max(k - 1, 0)], grid[min(k + 1, 1999)]
    theta_g, value_g = _golden_max(total, float(a), float(b), 1e-9)
    if value_g > best_value:
        best_theta, best_value = theta_g, value_g
    if not math.isfinite(best_value) or best_value < 0.0:
        raise NumericalError("no feasible analyzer angle")
    return best_value / (2 * gamma_prime), best_theta


def _bits(result):
    return tuple(float(x).hex() for x in result)


def test_search_matches_full_grid_on_log_spaced_transmissions():
    for total in np.geomspace(1e-8, 1 - 1e-6, 3000):
        total = float(total)
        assert _bits(t_wva(total, 1.3e6)) == _bits(_full_grid_t_wva(total, 1.3e6)), total


@pytest.mark.parametrize("k", range(6, 16))
def test_search_matches_full_grid_next_to_unit_transmission(k):
    total = 1 - 10.0**-k
    assert _bits(t_wva(total, 2.0)) == _bits(_full_grid_t_wva(total, 2.0))


def _outcome(function, total):
    try:
        return _bits(function(total, 0.5))
    except (NumericalError, RuntimeWarning) as exc:  # pytest raises numpy's warnings
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 1.0, exclude_min=True))
def test_search_matches_full_grid_on_drawn_transmissions(total):
    if total < sys.float_info.min:
        with pytest.raises(ParameterError, match="must be a normal float"):
            t_wva(total, 0.5)
    else:
        assert _outcome(t_wva, total) == _outcome(_full_grid_t_wva, total)


@pytest.mark.parametrize(
    "total", [1e-24, 1e-12, 1e-8, 1e-4, 0.0566, 0.5, 0.999, 1 - 1e-9, 1 - 2.0**-53]
)
def test_rounding_bound_covers_every_cell(total):
    # The search's window rests on this bound: every computed cell lies
    # within it of the exact objective, and where a cell reads infeasible the
    # exact objective lies below it.  Exact: 40 digits at the cell's angle.
    mpmath = pytest.importorskip("mpmath")
    bound = analysis._rounding_bound(total)
    grid = _grid(total)
    values = _cells(grid, total)
    with mpmath.workdps(40):
        for theta, value in zip(grid[::5], values[::5]):
            theta = mpmath.mpf(float(theta))
            s = mpmath.sin(theta + mpmath.pi / 4)
            exact = mpmath.cos(theta) / (mpmath.sqrt(2) * s) * mpmath.log(2 * s * s / total - 1)
            if math.isfinite(value):
                assert abs(value - exact) <= bound
            else:
                assert exact <= bound


def test_search_evaluates_under_a_tenth_of_the_grid(monkeypatch):
    counts = []

    def counted(theta, total):
        counts[-1] += theta.size
        return _cells(theta, total)

    monkeypatch.setattr(analysis, "_cells", counted)
    for total in np.geomspace(1e-4, 0.999, 400):
        counts.append(0)
        t_wva(float(total), 1.0)
    assert 0 < max(counts) <= 0.1 * _GRID_POINTS


# T = 1, the smallest normal float, whole-grid rows (d infinite below about
# 1e-25) and rows next to 1 along with everyday transmissions
_EDGE_TRANSMISSIONS = [1.0, sys.float_info.min, 1e-300, 1e-30, 1e-26, 1e-16, 1 - 1e-12, 1 - 2.0**-53]
_TABLE_TRANSMISSIONS = st.one_of(
    st.floats(sys.float_info.min, 1.0),
    st.floats(-307.0, 0.0).map(lambda exponent: 10.0**exponent),
    st.sampled_from(_EDGE_TRANSMISSIONS),
)


@pytest.mark.parametrize("total", [*_EDGE_TRANSMISSIONS, 1e-8, 1e-6, 0.05, 0.0566, 0.5, 0.999999])
def test_search_cells_are_the_grid_cells_bit_for_bit(total):
    # _angles repeats np.linspace's arithmetic on the cells the search
    # forms: every cell, as one row and as a coarse table row, has the bits
    # of _grid's cell.  At 1e-6 and 0.05, 1999 * step + lo is not hi.
    lo, hi = _grid_ends(total)
    step = (hi - lo) / (_GRID_POINTS - 1)
    grid = _grid(total)
    index = np.arange(_GRID_POINTS)
    assert _bits(_angles(index, lo, step, hi)) == _bits(grid)
    for a, b in [(0, 65), (960, 1025), (1920, 2000), (1999, 2000)]:
        assert _bits(_angles(index[a:b], lo, step, hi)) == _bits(grid[a:b])
    column = np.array([[lo, step, hi]] * 3)
    table = _angles(_COARSE, column[:, 0:1], column[:, 1:2], column[:, 2:3])
    assert all(_bits(row) == _bits(grid[_COARSE]) for row in table)


def test_table_search_picks_the_full_grid_winner_and_its_neighbours():
    totals = [*_EDGE_TRANSMISSIONS, *np.geomspace(1e-12, 1 - 1e-9, 300).tolist()]
    for total, cells in zip(totals, _winning_cells(totals)):
        grid = _grid(total)
        k = int(np.argmax(_cells(grid, total)))
        expected = (grid[k], grid[max(k - 1, 0)], grid[min(k + 1, _GRID_POINTS - 1)])
        assert _bits(cells) == _bits(expected), total


@settings(max_examples=150, deadline=None)
@given(st.lists(_TABLE_TRANSMISSIONS, min_size=1, max_size=8))
def test_table_matches_one_call_per_transmission_bit_for_bit(totals):
    totals = totals + totals[: len(totals) // 2]  # duplicates in every longer table
    advances, angles = t_wva(totals, 1.3e6)
    assert advances.dtype == angles.dtype == np.float64
    table = [_bits(row) for row in zip(advances, angles)]
    assert table == [_bits(t_wva(total, 1.3e6)) for total in totals]
    assert table == [_bits(_full_grid_t_wva(total, 1.3e6)) for total in totals]


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


def test_table_search_stays_sparse(monkeypatch):
    counts = []

    def counted(theta, total):
        counts.append(theta.size)
        return _cells(theta, total)

    monkeypatch.setattr(analysis, "_cells", counted)
    table = np.geomspace(1e-4, 0.999, 400).tolist()
    t_wva(table, 1.0)
    assert sum(counts) <= 0.1 * len(table) * _GRID_POINTS
    sparse, largest = sum(counts), max(counts)
    counts.clear()
    t_wva(table * 10, 1.0)  # searched in blocks: no array grows with the table
    assert max(counts) == largest
    counts.clear()
    t_wva(table + [1e-30], 1.0)  # d is infinite: one whole-grid row, no coarse cells
    assert sparse < sum(counts) <= sparse + _GRID_POINTS


def test_table_search_takes_the_first_of_tied_maxima(monkeypatch):
    # np.argmax's first maximum: cell values rounded to 0.1 tie over a broad
    # plateau at every row's top, and rounding keeps the objective unimodal
    def rounded(theta, total):
        return np.round(_cells(theta, total), 1)

    monkeypatch.setattr(analysis, "_cells", rounded)
    totals = [0.02, 0.0566, 0.5, 0.9]
    for total, cells in zip(totals, _winning_cells(totals)):
        grid = _grid(total)
        values = rounded(grid, total)
        assert np.count_nonzero(values == values.max()) > 2
        k = int(np.argmax(values))
        expected = (grid[k], grid[max(k - 1, 0)], grid[min(k + 1, _GRID_POINTS - 1)])
        assert _bits(cells) == _bits(expected), total


@pytest.mark.parametrize("totals", [[1e-30], [1e-30, 1e-300], []])
def test_table_search_of_whole_grid_rows_alone(totals):
    # every row's d is infinite: no coarse cells, one whole-grid span per row
    cells = _winning_cells(totals)
    assert len(cells) == len(totals)
    for total, row in zip(totals, cells):
        grid = _grid(total)
        k = int(np.argmax(_cells(grid, total)))
        expected = (grid[k], grid[max(k - 1, 0)], grid[min(k + 1, _GRID_POINTS - 1)])
        assert _bits(row) == _bits(expected), total


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
    assert c == pytest.approx(CROSSOVER_TRANSMISSION, abs=1e-5)
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
    # Both advances scale as 1/gamma', so the gap changes sign inside
    # [1e-3, 0.5] at the same root for every gamma' whose advances are finite
    # and nonzero; at the extremes the advances leave float range, and that
    # gamma' is refused as an input.
    c = crossover(1.0)
    for exponent in range(-300, 301, 25):
        assert crossover(10.0**exponent) == c, exponent
    for extreme in (5e-324, 1e-320, 1e308, sys.float_info.max):
        with pytest.raises(ParameterError, match=r"^gamma_prime: .* out of float range$"):
            crossover(extreme)


def _sequential_crossover(gamma_prime):
    """crossover as a plain bisection: the reference for the predicted path
    checked by one table call.  Each gap is one scalar t_wva call, made in
    the order the bisection asks for it."""

    def gap(total):
        return t_wva(total, gamma_prime)[0] - t_atom(total, gamma_prime)

    lo, hi = 1e-3, 0.5
    if not gap(lo) > 0.0 >= gap(hi):
        raise NumericalError("advance gap does not change sign")
    while hi - lo > 1e-5:
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


_CROSSOVER_RATES = [
    *(10.0**exponent for exponent in range(-300, 301, 25)),
    1.0,
    3.3,
    1.24e6,
    default_config().reduced_line().gamma_prime,
]
_OUT_OF_RANGE_RATES = [5e-324, 1e-320, 1e308, sys.float_info.max]


def _crossover_outcome(function, rate):
    try:
        return float(function(rate)).hex()
    except ParameterError as exc:
        return str(exc)


@pytest.mark.parametrize("rate", [*_CROSSOVER_RATES, *_OUT_OF_RANGE_RATES])
def test_crossover_matches_sequential_bisection_bit_for_bit(rate):
    assert _crossover_outcome(crossover, rate) == _crossover_outcome(_sequential_crossover, rate)
    if rate in _OUT_OF_RANGE_RATES:
        assert "out of float range" in _crossover_outcome(crossover, rate)


def _t_wva_rows(monkeypatch):
    """The rows of each t_wva call that analysis makes from now on."""
    rows = []

    def counted(totals, gamma_prime):
        rows.append(1 if np.ndim(totals) == 0 else len(totals))
        return t_wva(totals, gamma_prime)

    monkeypatch.setattr(analysis, "t_wva", counted)
    return rows


@pytest.mark.parametrize("guess", [True, False])
def test_crossover_does_not_rest_on_its_prediction(monkeypatch, guess):
    # a predictor that is always wrong past some step: every midpoint off the
    # predicted path gets its own call, and the root keeps its bits
    monkeypatch.setattr(analysis, "_gap_estimate_positive", lambda total: guess)
    rows = _t_wva_rows(monkeypatch)
    for rate in [1.0, 1.24e6, 1e-250, 1e250]:
        rows.clear()
        assert float(crossover(rate)).hex() == float(_sequential_crossover(rate)).hex()
        assert rows[0] == 18 and len(rows) > 1


def test_crossover_makes_one_table_call(monkeypatch):
    rows = _t_wva_rows(monkeypatch)
    tstar = crossover(default_config().reduced_line().gamma_prime)
    assert tstar == pytest.approx(CROSSOVER_TRANSMISSION, rel=1e-13)
    assert rows == [18]  # the bracket ends and 16 midpoints
