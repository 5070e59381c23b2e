import dataclasses
import json
import warnings

import numpy as np
import pytest
import scipy.constants
import scipy.signal
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fastlight import errors
from fastlight import (
    ApproximationWarning,
    MediumSpec,
    NumericalError,
    ParameterError,
    ReducedLine,
    absorption,
    group_advance,
    kk_check,
    transmission,
)
from fastlight._csvout import NUMBER_FORMAT
from fastlight.atomic_response import (
    _KK_PAD_FACTOR,
    _KK_TAPER_FRACTION,
    C_LIGHT,
    _hilbert_imag,
    _taper_ends,
    chi_lorentzian,
    gamma_effective,
    group_index,
    kramers_kronig_residual,
    light_shift,
    phase_slope,
    power_broadening,
    transfer_exponent,
)
from fastlight.cli import _KK_HALF_SPAN, _KK_POINTS, _SPECTRUM_HALF_SPAN, main
from fastlight.config import parse_config
from reference_chi import background_susceptibility, chi_full, chi_resonant

# Frozen values for the example_spec fixture (beta=1, gamma=0.01, Gamma=1,
# Omega_c=0.2, Delta=100, omega0=1e5):
#   gamma0 = Omega_c^2 Gamma / (8 Delta^2 + 2 Gamma^2) = 0.04/80002
#   delta0 = Omega_c^2 Delta / (4 Delta^2 + Gamma^2)  = 4/40001
GAMMA0_EXAMPLE = 4.999875003124922e-07
DELTA0_EXAMPLE = 9.999750006249844e-05

# Frozen reduction of the demo_spec fixture (warm-vapor SI numbers).
DEMO_T0 = 2.802105797167029e-07
DEMO_GAMMA_PRIME = 1237808.3192515336
DEMO_TRANSMISSION = 0.4997266782963322


def test_power_broadening_frozen(example_spec):
    assert power_broadening(example_spec) == pytest.approx(GAMMA0_EXAMPLE, rel=1e-12)
    # simple far-detuned estimate Omega_c^2 Gamma / (8 Delta^2) is 2.5e-5 high
    assert power_broadening(example_spec) == pytest.approx(
        example_spec.omega_c_rabi**2 / (8 * example_spec.Delta**2), rel=3e-5
    )


def test_light_shift_frozen(example_spec):
    assert light_shift(example_spec) == pytest.approx(DELTA0_EXAMPLE, rel=1e-12)


def test_gamma_effective_is_sum(example_spec):
    assert gamma_effective(example_spec) == example_spec.gamma + power_broadening(
        example_spec
    )


def test_susceptibility_splits_into_background_plus_feature(example_spec):
    bg = background_susceptibility(example_spec)
    delta = np.linspace(-0.05, 0.05, 11)
    assert np.allclose(
        chi_resonant(delta, example_spec),
        chi_full(delta, example_spec) - bg,
        rtol=0,
        atol=0,
    )
    # the flat background dwarfs the feature at these scales
    assert abs(bg) > 50 * np.max(np.abs(chi_resonant(delta, example_spec)))


def test_resonant_peak_matches_lorentzian_peak(example_spec):
    d0 = light_shift(example_spec)
    peak_full = chi_resonant(d0, example_spec).imag
    peak_reduced = chi_lorentzian(0.0, example_spec).imag
    assert peak_full == pytest.approx(peak_reduced, rel=0.02)


def test_resonant_part_matches_lorentzian_near_line(example_spec):
    gp = gamma_effective(example_spec)
    d0 = light_shift(example_spec)
    delta_prime = np.linspace(-5 * gp, 5 * gp, 101)
    feature = chi_resonant(d0 + delta_prime, example_spec)
    reduced = chi_lorentzian(delta_prime, example_spec)
    rel = np.abs(feature - reduced) / abs(chi_lorentzian(0.0, example_spec))
    assert np.max(rel) < 0.05


def test_lorentzian_limit_improves_with_detuning(example_spec):
    errors = []
    for detuning in (1e2, 1e3, 1e4):
        spec = MediumSpec(
            beta=1.0,
            gamma=0.01,
            Gamma=1.0,
            omega_c_rabi=0.2,
            Delta=detuning,
            length=0.0,
            omega0=1e5,
        )
        gp = gamma_effective(spec)
        delta_prime = np.linspace(-5 * gp, 5 * gp, 101)
        feature = chi_resonant(light_shift(spec) + delta_prime, spec)
        reduced = chi_lorentzian(delta_prime, spec)
        errors.append(
            float(np.max(np.abs(feature - reduced)) / abs(chi_lorentzian(0.0, spec)))
        )
    assert errors[0] > errors[1] > errors[2]


def test_chi_full_scalar_and_vector(example_spec):
    scalar = chi_full(0.5, example_spec)
    assert isinstance(scalar, complex)
    vector = chi_full(np.array([0.5, 1.0]), example_spec)
    assert vector.shape == (2,)
    assert vector[0] == scalar


def test_chi_full_degenerate_denominator():
    # beta enormous relative to the detuning scale drives |den|/|num| below
    # the 1e-30 floor
    spec = MediumSpec(
        beta=1e35, gamma=0.01, Gamma=1.0, omega_c_rabi=0.0, Delta=100.0,
        length=0.0, omega0=1e5,
    )
    with pytest.raises(NumericalError, match="denominator vanished"):
        chi_full(0.0, spec)


def test_group_index_closed_form_at_line_center(example_spec):
    gp = gamma_effective(example_spec)
    expected = 1.0 + example_spec.beta * (
        example_spec.omega_c_rabi**2 / (8 * example_spec.Delta**2)
    ) * example_spec.omega0 / gp**2
    assert group_index(0.0, example_spec) == pytest.approx(expected, rel=1e-6)


def test_group_index_unity_without_coupling(example_spec):
    spec = MediumSpec(
        beta=1.0, gamma=0.01, Gamma=1.0, omega_c_rabi=0.0, Delta=100.0,
        length=0.0, omega0=1e5,
    )
    assert group_index(0.0, spec) == 1.0
    assert group_index(3.0, spec) == 1.0


def test_group_index_sign_flips_at_line_width(example_spec):
    gp = gamma_effective(example_spec)
    assert group_index(0.9 * gp, example_spec) > 1.0
    assert group_index(1.1 * gp, example_spec) < 1.0
    assert group_index(-1.1 * gp, example_spec) < 1.0


def test_group_index_refuses_a_susceptibility_of_half_or_more(example_spec):
    # |chi| peaks at line centre, S/gamma' = 1e-4 beta here: n = 1 + chi/2
    # linearizes sqrt(1 + chi) only while |chi| < 0.5
    peak = abs(chi_lorentzian(0.0, example_spec))
    below, at = (dataclasses.replace(example_spec, beta=k / peak) for k in (0.49, 0.5))
    assert abs(chi_lorentzian(0.0, at)) >= 0.5 > abs(chi_lorentzian(0.0, below))
    assert group_index(0.0, below) > 1.0
    for delta_prime in (0.0, np.float64(0.0), [1e3, 0.0, -1e3]):  # one row is enough
        with pytest.raises(ParameterError, match=r"^group_index expects \|chi\| < 0.5; .* = 0.5\)"):
            group_index(delta_prime, at)


def test_group_index_rejects_infinite_detuning(example_spec):
    with pytest.raises(NumericalError, match="out of float range"):
        group_index(np.inf, example_spec)


@pytest.mark.parametrize("delta_prime", [-np.inf, 1e200, [0.0, 1e200]])
def test_group_index_refuses_detunings_beyond_float_squares_without_warning(
    example_spec, delta_prime
):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="out of float range"):
            group_index(delta_prime, example_spec)


def _lorentzian_reference(spec, delta_prime, mpmath):
    """Re chi/2 and n_g at each detuning, to 40 digits: chi = S (x + i gamma')
    / (x^2 + gamma'^2) with S = beta Omega_c^2 / (4 Delta^2), and n_g = 1 +
    Re chi/2 + (omega0/2) dRe chi/dx, from the spec's floats and gamma' as
    the package rounds it."""
    with mpmath.workdps(40):
        mpf = mpmath.mpf
        strength = mpf(spec.beta) * mpf(spec.omega_c_rabi) ** 2 / (4 * mpf(spec.Delta) ** 2)
        gp, omega0 = mpf(gamma_effective(spec)), mpf(spec.omega0)
        half_re_chi, n_g = [], []
        for x in map(mpf, np.asarray(delta_prime, dtype=float).tolist()):
            den = x**2 + gp**2
            half_re_chi.append(strength * x / den / 2)
            n_g.append(1 + half_re_chi[-1] + omega0 / 2 * strength * (gp**2 - x**2) / den**2)
    return half_re_chi, n_g


def _readme_spectrum_grid():
    """The README medium and the physical spectrum's 1601-point grid."""
    spec = parse_config(README_MEDIUM).medium.medium_spec()
    gp = gamma_effective(spec)
    return spec, np.linspace(-_SPECTRUM_HALF_SPAN * gp, _SPECTRUM_HALF_SPAN * gp, 1601)


@pytest.mark.parametrize("medium", ["example", "readme"])
def test_group_index_and_index_match_a_40_digit_lorentzian(example_spec, medium):
    mpmath = pytest.importorskip("mpmath")
    if medium == "readme":
        spec, delta = _readme_spectrum_grid()
    else:
        spec, gp = example_spec, gamma_effective(example_spec)
        delta = np.linspace(-10 * gp, 10 * gp, 1601)
    delta = np.append(delta, 0.0)  # and line centre itself
    half_re_chi, n_g = _lorentzian_reference(spec, delta, mpmath)
    scale = max(abs(n - 1) for n in n_g)
    computed = group_index(delta, spec).tolist() + [group_index(0.0, spec)]
    assert max(abs(mpmath.mpf(a) - b) for a, b in zip(computed, n_g + n_g[-1:])) <= 1e-14 * scale
    index = chi_lorentzian(delta, spec).real / 2
    pairs = zip(index.tolist(), half_re_chi)
    assert all(abs(mpmath.mpf(a) - b) <= 1e-15 * abs(b) for a, b in pairs)


def test_group_advance_frozen(demo_spec):
    line = group_advance(demo_spec)
    assert line.t0 == pytest.approx(DEMO_T0, rel=1e-12)
    assert line.gamma_prime == pytest.approx(DEMO_GAMMA_PRIME, rel=1e-12)


def test_group_advance_scales_linearly_in_beta(demo_spec):
    base = group_advance(demo_spec)
    for k in (0.5, 2.0, 4.0):
        scaled = MediumSpec(
            beta=k * demo_spec.beta,
            gamma=demo_spec.gamma,
            Gamma=demo_spec.Gamma,
            omega_c_rabi=demo_spec.omega_c_rabi,
            Delta=demo_spec.Delta,
            length=demo_spec.length,
            omega0=demo_spec.omega0,
        )
        assert group_advance(scaled).t0 == k * base.t0


def test_phase_slope_is_the_derivative_of_the_transfer_phase(quick_line):
    line = quick_line
    gp = line.gamma_prime
    om = np.linspace(-3 * gp, 3 * gp, 61)
    h = 1e-5 * gp
    numeric = (
        transfer_exponent(om + h, line).real - transfer_exponent(om - h, line).real
    ) / (2 * h)
    assert np.allclose(phase_slope(om, line), numeric, rtol=1e-6, atol=1e-9 * line.t0)
    assert phase_slope(0.0, line) == pytest.approx(line.t0, rel=1e-12)
    assert transfer_exponent(0.0, line).imag == pytest.approx(gp * line.t0, rel=1e-12)
    assert transfer_exponent(0.0, line).real == 0.0


def test_transmission_matches_absorption_exponent(demo_spec):
    line = group_advance(demo_spec)
    direct = np.exp(-2 * absorption(demo_spec) * demo_spec.length)
    assert transmission(line) == pytest.approx(direct, rel=1e-12)
    assert transmission(line) == pytest.approx(DEMO_TRANSMISSION, rel=1e-12)


def test_far_detuning_hard_floor():
    spec = MediumSpec(
        beta=1.0, gamma=0.01, Gamma=1.0, omega_c_rabi=0.2, Delta=5.0,
        length=0.0, omega0=1e5,
    )
    with pytest.raises(ParameterError, match=r"chi_lorentzian requires \|Delta\| >= 10\*Gamma"):
        chi_lorentzian(0.0, spec)
    with pytest.raises(ParameterError, match=r"group_advance requires \|Delta\| >= 10\*Gamma"):
        group_advance(spec)


def test_far_detuning_soft_warning():
    spec = MediumSpec(
        beta=1.0, gamma=0.01, Gamma=1.0, omega_c_rabi=0.2, Delta=50.0,
        length=0.0, omega0=1e5,
    )
    with pytest.warns(ApproximationWarning):
        chi_lorentzian(0.0, spec)


@pytest.mark.parametrize(
    "field,value",
    [
        ("beta", np.nan),
        ("beta", -1.0),
        ("beta", 0.0),
        ("gamma", 0.0),
        ("gamma", -1.0),
        ("Gamma", 0.0),
        ("omega_c_rabi", -0.1),
        ("Delta", np.inf),
        ("Delta", -1e200),
        ("omega_c_rabi", 1e200),
        ("Gamma", 1e200),
        ("gamma", 1e200),
        ("length", -1.0),
        ("omega0", 0.0),
    ],
)
def test_medium_spec_validation(field, value):
    good = dict(
        beta=1.0, gamma=0.01, Gamma=1.0, omega_c_rabi=0.2, Delta=100.0,
        length=0.0, omega0=1e5,
    )
    good[field] = value
    with pytest.raises(ParameterError, match=field):
        MediumSpec(**good)


@pytest.mark.parametrize(
    "t0,gamma_prime", [(-1.0, 1.0), (np.nan, 1.0), (1.0, 0.0), (1.0, -2.0)]
)
def test_reduced_line_validation(t0, gamma_prime):
    with pytest.raises(ParameterError):
        ReducedLine(t0=t0, gamma_prime=gamma_prime)


def test_kk_residual_small_on_reference_grid(demo_spec):
    gp = gamma_effective(demo_spec)
    grid = np.linspace(-40 * gp, 40 * gp, 1 << 14)
    residual = kk_check(demo_spec, grid)
    assert residual == pytest.approx(1.079570236757e-03, rel=1e-6)
    assert residual < 0.02


def test_kk_residual_improves_with_span(demo_spec):
    gp = gamma_effective(demo_spec)
    narrow = kk_check(demo_spec, np.linspace(-40 * gp, 40 * gp, 1 << 14))
    wide = kk_check(demo_spec, np.linspace(-80 * gp, 80 * gp, 1 << 15))
    assert wide < narrow


def test_kk_flags_acausal_response():
    grid = np.linspace(-1.0, 1.0, 4096)
    flat_real = np.full(grid.size, 2.0 + 0.0j)
    assert kramers_kronig_residual(grid, flat_real) == 1.0


def test_kk_grid_validation(demo_spec):
    gp = gamma_effective(demo_spec)
    with pytest.raises(ParameterError, match="needs >= 4096 points"):
        kk_check(demo_spec, np.linspace(-40 * gp, 40 * gp, 1024))
    with pytest.raises(ParameterError, match="needs >= 40 gamma' of span"):
        kk_check(demo_spec, np.linspace(-5 * gp, 5 * gp, 1 << 14))
    lopsided = np.linspace(-1.0, 2.0, 4096)
    with pytest.raises(ParameterError, match="symmetric about zero"):
        kramers_kronig_residual(lopsided, np.ones(4096, dtype=complex))
    warped = np.linspace(-1.0, 1.0, 4096) ** 3
    with pytest.raises(ParameterError, match="uniformly spaced"):
        kramers_kronig_residual(warped, np.ones(4096, dtype=complex))
    with pytest.raises(ParameterError):
        kramers_kronig_residual(np.linspace(-1, 1, 100), np.ones(99, dtype=complex))


def _kk_nfft(n):
    """The padded FFT length kramers_kronig_residual uses for n samples."""
    return 1 << int(np.ceil(np.log2(_KK_PAD_FACTOR * n)))


@pytest.mark.parametrize("n", [16, 17, 100, 1601, 4096, 20001])
def test_hilbert_matches_scipy_bit_for_bit(n):
    rng = np.random.default_rng(n)
    nfft = _kk_nfft(n)
    for _ in range(5):
        x = rng.standard_normal(n)
        assert np.array_equal(_hilbert_imag(x, nfft), np.imag(scipy.signal.hilbert(x, N=nfft)))


# The physical-mode example of the README.
README_MEDIUM = {
    "medium": {
        "beta_rad_per_us": 0.0022,
        "gamma_rad_per_us": 1.2285,
        "Gamma_mhz": 6.0,
        "omega_c_rabi_mhz": 40.0,
        "Delta_mhz": 900.0,
        "length_cm": 10.0,
        "wavelength_nm": 794.98,
    }
}


def test_physical_spectrum_prints_the_40_digit_lorentzian(tmp_path):
    # each printed cell within half a unit of its 13th digit of the
    # reference, give or take the bound on the float it prints
    mpmath = pytest.importorskip("mpmath")
    spec, delta = _readme_spectrum_grid()
    path = tmp_path / "run.json"
    path.write_text(json.dumps(README_MEDIUM), encoding="utf-8")
    assert main(["spectrum", "--config", str(path), "--out", str(tmp_path)]) == 0
    header, *rows = (tmp_path / "spectrum.csv").read_text(encoding="utf-8").splitlines()
    table = dict(zip(header.split(","), zip(*(row.split(",") for row in rows))))
    assert list(table["delta_prime_rad_per_s"]) == [NUMBER_FORMAT % x for x in delta]
    half_re_chi, n_g = _lorentzian_reference(spec, delta, mpmath)
    scale = max(abs(n - 1) for n in n_g)

    def off(cell, reference, bound):
        unit = mpmath.mpf(10) ** (int(cell.split("e")[1]) - 12)
        return abs(mpmath.mpf(cell) - reference) > unit / 2 + bound

    assert not any(off(c, r, 1e-14 * scale) for c, r in zip(table["group_index"], n_g))
    assert not any(off(c, r, 1e-15 * abs(r)) for c, r in zip(table["re_n_minus_1"], half_re_chi))
    lines = (tmp_path / "spectrum_summary.csv").read_text(encoding="utf-8").splitlines()
    summary = dict(line.split(",") for line in lines)
    (center,) = _lorentzian_reference(spec, [0.0], mpmath)[1]
    printed = summary["group_index_line_center"]
    assert printed == NUMBER_FORMAT % float(center) == "8.410501845088e+02"


def test_spectrum_of_a_medium_with_a_susceptibility_of_half_or_more_exits_2(tmp_path, capsys):
    # beta 2500 rad/us in place of 0.0022 lifts |chi| at line centre to about 1
    path = tmp_path / "run.json"
    medium = dict(README_MEDIUM["medium"], beta_rad_per_us=2500.0)
    path.write_text(json.dumps({"medium": medium}), encoding="utf-8")
    assert main(["spectrum", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: group_index expects |chi| < 0.5;")
    assert not (tmp_path / "out").exists()


def test_spectrum_of_a_medium_whose_chi_strength_overflows_exits_3(tmp_path, capsys):
    # beta Omega_c^2 overflows (1e300 rad/s times 1e20) while the advance, which
    # divides first, stays finite: chi's line shape refuses, not nan columns
    medium = {
        "beta_rad_per_us": 1e294, "gamma_rad_per_us": 1e6, "Gamma_mhz": 6.0,
        "omega_c_rabi_rad_per_us": 1e4, "Delta_rad_per_us": 1e4, "length_m": 1e-20,
        "omega0_rad_per_us": 1e-12,
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"medium": medium}), encoding="utf-8")
    assert main(["spectrum", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.startswith("error: line shape out of float range")
    assert not (tmp_path / "out").exists()


def test_hilbert_matches_scipy_on_readme_medium():
    """The tapered Im chi that spectrum's kk_residual transforms."""
    cfg = parse_config(README_MEDIUM)
    gp = cfg.reduced_line().gamma_prime
    grid = np.linspace(-_KK_HALF_SPAN * gp, _KK_HALF_SPAN * gp, _KK_POINTS)
    im = _taper_ends(chi_lorentzian(grid, cfg.medium.medium_spec()).imag, _KK_TAPER_FRACTION)
    nfft = _kk_nfft(im.size)
    assert np.array_equal(_hilbert_imag(im, nfft), np.imag(scipy.signal.hilbert(im, N=nfft)))


def test_speed_of_light_is_scipys():
    assert C_LIGHT == scipy.constants.c


def test_transfer_exponent_is_the_susceptibility_of_the_cell():
    # One line: Phi = (omega0 L / 2c) chi, where chi's strength beta Omega_c^2 / 4 Delta^2
    # and Phi's t0 gamma'^2 differ only by that factor.
    spec = parse_config(README_MEDIUM).medium.medium_spec()
    line = group_advance(spec)
    delta = np.linspace(-10 * line.gamma_prime, 10 * line.gamma_prime, 2001)
    phi = transfer_exponent(delta, line)
    scaled = spec.omega0 * spec.length / (2 * C_LIGHT) * chi_lorentzian(delta, spec)
    np.testing.assert_allclose(phi, scaled, rtol=1e-12, atol=0.0)


_LINE = ReducedLine(2.8e-7, 1.25e6)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda spec: transfer_exponent("a", _LINE), "om"),
        (lambda spec: transfer_exponent(None, _LINE), "om"),
        (lambda spec: phase_slope("a", _LINE), "om"),
        (lambda spec: phase_slope(np.array([0.0, None]), _LINE), "om"),
        (lambda spec: chi_lorentzian("a", spec), "delta_prime"),
        (lambda spec: chi_lorentzian(None, spec), "delta_prime"),
        (lambda spec: group_index([0.0, "a"], spec), "delta_prime"),
        (lambda spec: kk_check(spec, "a"), "delta_prime_grid"),
        (lambda spec: kramers_kronig_residual(None, np.zeros(16)), "delta_grid"),
        (lambda spec: transfer_exponent([[1.0, 2.0], [3.0]], _LINE), "om"),
        (lambda spec: phase_slope([0.0, [1.0, 2.0]], _LINE), "om"),
        (lambda spec: group_index([[0.0], []], spec), "delta_prime"),
        (lambda spec: kk_check(spec, [np.zeros(4096), np.zeros(3)]), "delta_prime_grid"),
    ],
    ids=[
        "transfer_string", "transfer_none", "slope_string", "slope_object_array", "chi_string",
        "chi_none", "group_index_row", "kk_check_string", "kk_residual_none", "transfer_ragged",
        "slope_ragged", "group_index_ragged", "kk_check_ragged",
    ],
)
def test_a_non_number_grid_is_refused_by_name(demo_spec, call, name):
    # the grid is checked by errors.check_grid from numpy's dtype kind and
    # shape: no TypeError, no numpy ValueError, and no nan behind a warning
    with pytest.raises(ParameterError, match=f"^{name}: must be a number or an array of numbers"):
        call(demo_spec)


def test_a_grid_check_keeps_scalar_types_and_arrays(demo_spec):
    om = np.linspace(-1e7, 1e7, 9)
    assert errors.check_grid("om", om) is om  # the hot path's grids are not copied
    for number in (0.0, 0, np.float64(0.0), np.int32(0), np.array(0.0)):  # one row, of float64
        row = errors.check_grid("om", number)
        assert (type(row), row.dtype, row.shape, row[0]) == (np.ndarray, np.float64, (1,), 0.0)
    # a number comes back as a scalar of its kind: Python's for a Python number,
    # numpy's for a numpy scalar
    assert type(transfer_exponent(0.0, _LINE)) is complex
    assert type(transfer_exponent(np.float64(0.0), _LINE)) is np.complex128
    assert type(phase_slope(0.0, _LINE)) is float
    assert type(phase_slope(np.float64(0.0), _LINE)) is np.float64
    assert type(chi_lorentzian(0.0, demo_spec)) is complex
    assert type(chi_lorentzian(np.float64(0.0), demo_spec)) is np.complex128
    assert type(group_index(0.0, demo_spec)) is float
    assert type(group_index(0, demo_spec)) is float
    assert type(group_index(np.float64(0.0), demo_spec)) is np.float64
    # a list of numbers reads as its array
    np.testing.assert_array_equal(transfer_exponent([0.0, 1e6], _LINE),
                                  transfer_exponent(np.array([0.0, 1e6]), _LINE))


# Each line function as a function of the detuning alone, on the README medium
# and its reduced line.
_README_SPEC = parse_config(README_MEDIUM).medium.medium_spec()
_README_LINE = group_advance(_README_SPEC)
_LINE_FUNCTIONS = {
    "chi_lorentzian": lambda x: chi_lorentzian(x, _README_SPEC),
    "group_index": lambda x: group_index(x, _README_SPEC),
    "transfer_exponent": lambda x: transfer_exponent(x, _README_LINE),
    "phase_slope": lambda x: phase_slope(x, _README_LINE),
}
_GP = _README_LINE.gamma_prime


@pytest.mark.parametrize("name", _LINE_FUNCTIONS)
@settings(max_examples=300, deadline=None)
@given(st.one_of(st.sampled_from([0.0, -0.0, _GP, -_GP]), st.floats(-1e4 * _GP, 1e4 * _GP)))
@example(x=-2309291.202062021).via("a Python float's group index once left its row")
@example(x=-564256031.0610065).via("and its phase slope")
@example(x=379402139.10321045).via("and its transfer exponent")
def test_a_number_gets_the_bits_of_its_row_in_an_array(name, x):
    # one route: a Python float and its numpy scalar each give exactly what
    # the same detuning gives as one row among others
    line_function = _LINE_FUNCTIONS[name]
    rows = line_function(np.array([-3 * _GP, x, 0.5 * _GP]))
    for number in (x, np.float64(x)):
        value = line_function(number)
        assert np.array([value]).tobytes() == rows[1:2].tobytes(), (number, value, rows[1])


@pytest.mark.parametrize("name", ["transfer_exponent", "chi_lorentzian"])
@pytest.mark.parametrize("om", [1e200, -1e200, np.float64(1e200), [0.0, 1e200], np.array([1e200])],
                         ids=["number", "negative", "numpy_scalar", "list", "array"])
def test_the_line_shape_refuses_detunings_beyond_float_squares_without_warning(name, om):
    # the shape's kernel runs under the slope's guard: one NumericalError for
    # a number and for an array, not a bare OverflowError or an inf behind a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="^line shape out of float range"):
            _LINE_FUNCTIONS[name](om)
