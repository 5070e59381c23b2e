"""End-to-end CLI runs: files, schemas, determinism, and exit codes."""

import csv
import json
import math
import os
import signal
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import fastlight.cli
from fastlight import (
    ApproximationWarning, FitFailureError, _fork, default_config, load_config, parse_config, t_atom
)
from fastlight.atomic_response import kramers_kronig_residual, transfer_exponent
from fastlight.cli import _angle_table, _build_parser, _propagated_state, cmd_sweep_theta, main
from oracles import two_gaussian_centroid

MEDIUM = {
    "beta_rad_per_us": 0.0022,
    "gamma_rad_per_us": 1.2285,
    "Gamma_mhz": 6.0,
    "omega_c_rabi_mhz": 40.0,
    "Delta_mhz": 900.0,
    "length_cm": 10.0,
    "wavelength_nm": 794.98,
}


QUICK_START = {"line": {"t0_us": 0.28, "line_center_transmission": 0.5}}
NO_ADVANCE = {"line": {"t0_us": 0.0, "gamma_prime_rad_per_us": 1.25}}


def _read_kv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "quantity,value"
    return dict(line.split(",", 1) for line in lines[1:])


def _write_config(tmp_path, data, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_bright_pulse_propagates_without_numpy_warnings(tmp_path):
    # |spectrum|^2 of a 1e150 amplitude overflows unless normalised first;
    # pyproject.toml's filterwarnings = ["error"] fails any numpy warning
    cfg = _write_config(tmp_path, dict(QUICK_START, pulse={"amplitude": 1e150}))
    assert main(["propagate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


def test_propagate_quick_start(tmp_path):
    out = tmp_path / "out"
    assert main(["propagate", "--out", str(out)]) == 0
    for name in (
        "trace_h.csv",
        "trace_v.csv",
        "trace_postselected_theta_-40.00.csv",
        "trace_postselected_theta_-50.00.csv",
        "propagate_summary.csv",
    ):
        assert (out / name).is_file()
    table = np.genfromtxt(
        out / "propagate_summary.csv", delimiter=",", names=True
    )
    assert table.shape == (2,)
    assert list(table["theta_deg"]) == [-40.0, -50.0]
    # reference arm stays put; the post-selected peak moves by ~A_w t0
    assert np.all(np.abs(table["center_v_s"]) < 1e-9)
    assert np.all(
        np.abs(table["amplification_fitted"] - table["weak_value"])
        < 0.02 * np.abs(table["weak_value"])
    )
    assert np.all(table["relative_deviation"] < 0.02)
    assert table["throughput_measured"] == pytest.approx(
        table["throughput_predicted"], rel=2e-3
    )


def test_quick_start_arrives_later_than_a_bare_line_with_the_same_loss(tmp_path):
    # the north-star comparison: each post-selected advance over the advance
    # -ln(T)/(2 gamma') of a bare line that passes the same measured throughput
    # T; to within 1e-3 it is 0.812 at -40 deg and -0.684 at -50 deg, so both
    # quick-start angles arrive later than that bare line
    out = tmp_path / "out"
    assert main(["propagate", "--out", str(out)]) == 0
    table = np.genfromtxt(out / "propagate_summary.csv", delimiter=",", names=True)
    gamma_prime = default_config().reduced_line().gamma_prime
    bare = [t_atom(t, gamma_prime) for t in table["throughput_measured"]]
    ratios = table["advance_s"] / bare
    assert ratios == pytest.approx([0.812, -0.684], abs=1e-3)
    assert np.all(ratios < 1)
    # and the summary says so itself
    assert table["advantage_over_bare"] == pytest.approx([0.812, -0.684], abs=1e-3)


@pytest.mark.parametrize("propagation", ["spectral", "ideal"])
def test_advantage_over_bare_is_the_advance_over_t_atom_of_the_measured_throughput(propagation):
    # row by row and bit for bit, 0.5 deg either side of the dark port too
    config = parse_config(dict(QUICK_START, propagation=propagation))
    line, t_tilde, propagated = _propagated_state(config)
    thetas = [-85.0, -50.0, -45.5, -44.5, -40.0, -5.0, 30.0, 90.0]
    table, _ = _angle_table(propagated, line, t_tilde, thetas)
    for i in range(len(thetas)):
        bare = t_atom(table["throughput_measured"][i], line.gamma_prime)
        assert table["bare_advance_same_loss_s"][i] == bare
        assert table["advantage_over_bare"][i] == table["advance_s"][i] / bare


def test_a_throughput_that_rounds_to_one_prints_an_infinite_advantage(tmp_path):
    # a line of t0 = 1e-20 us passes T~ = 1.0 exactly, so at 45 deg the
    # measured throughput is 1 and the bare line advances by 0: the column
    # reads inf, without a numpy warning (pyproject.toml fails any warning);
    # such a t0 is far below what the fits resolve, which the run says
    cfg = _write_config(tmp_path, {"line": {"t0_us": 1e-20, "gamma_prime_rad_per_us": 1.0}})
    sweep = ["sweep-theta", "--start", "44", "--stop", "46", "--count", "3"]
    with pytest.warns(ApproximationWarning):
        assert main(sweep + ["--config", cfg, "--out", str(tmp_path / "out")]) == 0
    swept = _csv_columns(tmp_path / "out" / "sweep_theta.csv")
    assert swept["throughput_measured"][1] == "1.000000000000e+00"
    assert swept["advantage_over_bare"][1] == "inf"


def test_ideal_advantage_over_bare_is_the_weak_value_reading():
    # under ideal propagation the post-selected field is a two-Gaussian sum
    # with arm weights cos(theta), sin(theta): its centroid advance is A t0
    # (A from oracles.two_gaussian_centroid) at the exact throughput
    # T = T~ (1 + kappa sin 2 theta)/(1 + T~), so the ratio to a bare line
    # that passes T is A ln T~ / ln T.  The fit reads a peak, not the
    # centroid: at every whole degree at least 10 deg from the port the gap
    # is at most 1.2e-4 relative (at -55 deg), so the tolerance is 2e-4.
    config = parse_config(dict(QUICK_START, propagation="ideal"))
    line, t_tilde, propagated = _propagated_state(config)
    sigma = config.pulse_sigma_s()
    kappa = math.exp(-(line.t0**2) / (8 * sigma**2))
    thetas = [float(deg) for deg in range(-85, 90) if abs(deg + 45) >= 10]
    table, _ = _angle_table(propagated, line, t_tilde, thetas)
    for theta_deg, advantage in zip(thetas, table["advantage_over_bare"]):
        theta = math.radians(theta_deg)
        a = -two_gaussian_centroid(math.cos(theta), math.sin(theta), line.t0, sigma) / line.t0
        throughput = t_tilde * (1 + kappa * math.sin(2 * theta)) / (1 + t_tilde)
        assert advantage == pytest.approx(a * math.log(t_tilde) / math.log(throughput), rel=2e-4)


def test_propagate_theta_zero_is_the_h_arm(tmp_path):
    out = tmp_path / "out"
    assert main(["propagate", "--theta", "0", "--out", str(out)]) == 0
    assert (out / "trace_postselected_theta_0.00.csv").read_bytes() == (
        out / "trace_h.csv"
    ).read_bytes()


def test_output_dir_comes_from_config_without_out_flag(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = _write_config(
        tmp_path,
        {
            "line": {"t0_us": 0.28, "line_center_transmission": 0.5},
            "output_dir": "results",
        },
    )
    assert main(["crossover", "--config", cfg]) == 0
    assert (tmp_path / "results" / "crossover.csv").is_file()


def test_reruns_are_byte_identical(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    for out in (first, second):
        assert main(["spectrum", "--out", str(out)]) == 0
        assert main(["propagate", "--out", str(out)]) == 0
        assert main(["crossover", "--out", str(out)]) == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_spectrum_reduced_schema(tmp_path):
    out = tmp_path / "out"
    assert main(["spectrum", "--out", str(out)]) == 0
    lines = (out / "spectrum.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "delta_prime_rad_per_s,loss_exponent_field,phase_rad,group_advance_s"
    assert len(lines) == 1 + 1601
    summary = _read_kv(out / "spectrum_summary.csv")
    assert summary["mode"] == "reduced"
    assert float(summary["line_center_transmission"]) == pytest.approx(0.5, rel=1e-9)
    assert float(summary["kk_residual"]) < 0.02


def test_spectrum_physical_schema(tmp_path):
    cfg = _write_config(tmp_path, {"medium": MEDIUM, "spectrum_points": 101})
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "spectrum.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == (
        "delta_prime_rad_per_s,loss_exponent_field,phase_rad,group_advance_s,"
        "chi_im,re_n_minus_1,group_index"
    )
    assert len(lines) == 1 + 101
    summary = _read_kv(out / "spectrum_summary.csv")
    assert summary["mode"] == "physical"
    assert float(summary["kk_residual"]) < 0.02
    assert float(summary["alpha_per_m"]) > 0
    # the huge line-center group index encodes the advance: |n_g - 1| = c t0 / L
    ng = float(summary["group_index_line_center"])
    t0 = float(summary["t0_s"])
    assert abs(ng - 1.0) == pytest.approx(299792458.0 * t0 / 0.1, rel=1e-6)
    assert abs(ng - 1.0) > 100


def test_physical_kk_residual_describes_the_propagated_line(tmp_path):
    # the summary checks chi; it must read the same as a check of the
    # transfer exponent that propagate actually applies
    cfg = _write_config(tmp_path, {"medium": MEDIUM, "spectrum_points": 101})
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    reported = float(_read_kv(out / "spectrum_summary.csv")["kk_residual"])
    line = load_config(cfg).reduced_line()
    gp = line.gamma_prime
    grid = np.linspace(-40 * gp, 40 * gp, 1 << 14)
    expected = kramers_kronig_residual(grid, transfer_exponent(grid, line))
    assert reported == pytest.approx(expected, rel=1e-9)


def test_crossover_reports_break_even(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["crossover", "--out", str(out)]) == 0
    assert "crossover transmission: 0.056596" in capsys.readouterr().out
    values = _read_kv(out / "crossover.csv")
    assert float(values["crossover_transmission"]) == pytest.approx(
        0.0565960430519634, rel=1e-12
    )
    # at the break-even point both schemes advance by the same amount
    assert float(values["advance_at_crossover_s"]) == pytest.approx(
        float(values["t_atom_at_crossover_s"]), rel=1e-12
    )


def test_loss_scaling_table(tmp_path):
    cfg = _write_config(
        tmp_path,
        {
            "line": {"t0_us": 0.28, "line_center_transmission": 0.5},
            "transmission_list": [0.02, 0.5],
        },
    )
    out = tmp_path / "out"
    assert main(["loss-scaling", "--config", cfg, "--out", str(out)]) == 0
    table = np.genfromtxt(out / "loss_scaling.csv", delimiter=",", names=True)
    assert table.shape == (2,)
    assert table["t_wva_norm"][0] == pytest.approx(4.461402865354, rel=1e-6)
    assert table["t_wva_norm"][1] == pytest.approx(0.638284155326, rel=1e-6)
    summary = _read_kv(out / "loss_scaling_summary.csv")
    assert 0.04 < float(summary["crossover_transmission"]) < 0.06


def test_loss_free_row_prints_a_positive_zero_advance(tmp_path):
    cfg = _write_config(tmp_path, dict(QUICK_START, transmission_list=[1, 0.5]))
    out = tmp_path / "out"
    assert main(["loss-scaling", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "loss_scaling.csv", encoding="utf-8", newline="") as fh:
        row = next(csv.DictReader(fh))
    for column in ("t_atom_norm", "t_atom_s", "t_wva_norm"):
        assert row[column] == "0.000000000000e+00", column


@pytest.mark.parametrize(
    "transmissions",
    [None, [0.005, 0.95], [2e-7, 0.99, 1.0], [sys.float_info.min, 1e-20, 1 - 1e-12, 1 - 2.0**-53]],
)
def test_loss_scaling_is_silent_at_every_transmission(tmp_path, transmissions):
    # pyproject.toml's filterwarnings = ["error"] fails any warning, numpy's
    # floating-point warnings included; None runs the quick-start list.
    # t_wva is exact to rounding at every normal T, so no row is flagged.
    argv = ["loss-scaling", "--out", str(tmp_path / "out")]
    if transmissions is not None:
        argv += ["--config", _write_config(tmp_path, dict(QUICK_START, transmission_list=transmissions))]
    assert main(argv) == 0


def test_sweep_theta_tracks_weak_value(tmp_path):
    out = tmp_path / "out"
    rc = main(
        ["sweep-theta", "--start", "-85", "--stop", "-5", "--count", "4", "--out", str(out)]
    )
    assert rc == 0
    table = np.genfromtxt(out / "sweep_theta.csv", delimiter=",", names=True)
    assert table.shape == (4,)
    assert np.all(table["relative_deviation"] < 0.02)
    # the amplification changes sign across the dark port at -45 deg
    assert np.all(table["weak_value"][table["theta_deg"] < -45.0] < 0)
    assert np.all(table["weak_value"][table["theta_deg"] > -45.0] > 0)
    assert np.all(np.sign(table["amplification_fitted"]) == np.sign(table["weak_value"]))


def test_quick_start_stdout(tmp_path, capsys):
    out = tmp_path / "out"
    for command in ("propagate", "loss-scaling", "crossover"):
        assert main([command, "--out", str(out)]) == 0
    assert capsys.readouterr().out == (
        "H advance 2.797381e-07 s over t0 2.800000e-07 s; wrote trace_h.csv, "
        "trace_v.csv, trace_postselected_theta_-40.00.csv, "
        f"trace_postselected_theta_-50.00.csv, propagate_summary.csv in {out}\n"
        f"wrote {out / 'loss_scaling.csv'} and {out / 'loss_scaling_summary.csv'}\n"
        "crossover transmission: 0.056596\n"
        f"wrote {out / 'crossover.csv'}\n"
    )


def _csv_columns(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return {column: cells for column, *cells in zip(*rows)}


def test_sweep_theta_columns_are_propagate_columns(tmp_path):
    # the same angles through both commands give the same text in every
    # column that sweep_theta.csv shares with propagate_summary.csv
    cfg = _write_config(tmp_path, dict(QUICK_START, theta_list_deg=[-50, -40]))
    out = tmp_path / "out"
    assert main(["propagate", "--config", cfg, "--out", str(out)]) == 0
    sweep = ["sweep-theta", "--start", "-50", "--stop", "-40", "--count", "2"]
    assert main(sweep + ["--config", cfg, "--out", str(out)]) == 0
    swept = _csv_columns(out / "sweep_theta.csv")
    propagated = _csv_columns(out / "propagate_summary.csv")
    assert list(swept) == [
        "theta_deg", "weak_value", "amplification_fitted", "relative_deviation",
        "throughput_measured", "advantage_over_bare",
    ]
    assert [c for c in propagated if c in swept] == list(swept)
    for column, cells in swept.items():
        assert len(cells) == 2 and cells == propagated[column], column


def test_loss_scaling_summary_rows_are_crossover_rows(tmp_path):
    out = tmp_path / "out"
    assert main(["loss-scaling", "--out", str(out)]) == 0
    assert main(["crossover", "--out", str(out)]) == 0
    summary = (out / "loss_scaling_summary.csv").read_text(encoding="utf-8").splitlines()
    crossover = (out / "crossover.csv").read_text(encoding="utf-8").splitlines()
    assert [line.split(",")[0] for line in summary] == [
        "quantity", "crossover_transmission", "theta_opt_deg_at_crossover",
        "gamma_prime_rad_per_s",
    ]
    assert all(line in crossover for line in summary)


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--config", "{tmp}/missing.json"],
        ["spectrum", "--config", "{tmp}/broken.json"],
        ["spectrum", "--config", "{tmp}/bad_field.json"],
        ["propagate", "--theta", "-45"],
        ["propagate", "--theta", "-44.995"],
        ["sweep-theta", "--start", "-46", "--stop", "-44", "--count", "3"],
        ["sweep-theta", "--count", "1"],
        ["crossover", "--out", "{tmp}/taken"],
        ["crossover", "--config", "{tmp}"],
        ["crossover", "--config", "{tmp}/latin1.json"],
        ["crossover", "--config", "{tmp}/bad_medium.json"],
        ["propagate", "--theta", "100"],
        ["propagate", "--config", "{tmp}/coarse.json"],
        ["propagate", "--config", "{tmp}/delaying.json"],
        ["crossover", "--config", "{tmp}/huge.json"],
        ["propagate", "--config", "{tmp}/colliding.json"],
        ["sweep-theta", "--count", "1048577"],
        ["sweep-theta", "--count", "1000000000000"],
        ["propagate", "--config", "{tmp}/no_advance.json"],
        ["sweep-theta", "--config", "{tmp}/no_advance.json"],
        ["propagate", "--config", "{tmp}/wide.json"],
        ["sweep-theta", "--config", "{tmp}/wide.json"],
        ["propagate", "--config", "{tmp}/bright.json"],
        ["propagate", "--config", "{tmp}/phased.json", "--theta", "-40"],
        ["loss-scaling", "--config", "{tmp}/subnormal.json"],
        ["spectrum", "--config", "{tmp}/moded.json"],
        ["loss-scaling", "--config", "{tmp}/wide_line.json"],
        ["crossover", "--config", "{tmp}/wide_line.json"],
        ["crossover", "--config", ""],
        ["crossover", "--out", ""],
        ["crossover", "--config", "{tmp}/deep.json"],
        ["crossover", "--config", "{tmp}/long_integer.json"],
        ["crossover", "--config", "{tmp}/nul\x00.json"],
        ["crossover", "--config", "{tmp}/repeated_key.json"],
        ["crossover", "--config", "{tmp}/two_lines.json"],
    ],
)
def test_parameter_problems_exit_2(tmp_path, capsys, argv):
    (tmp_path / "broken.json").write_text("{oops", encoding="utf-8")
    # json.load raises RecursionError on the one and ValueError (int's
    # 4300-digit limit) on the other, neither a JSONDecodeError; open raises
    # ValueError on a path with a NUL in it
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    (tmp_path / "long_integer.json").write_text(
        '{"pulse": {"amplitude": ' + "1" * 5000 + "}}", encoding="utf-8"
    )
    (tmp_path / "taken").write_text("", encoding="utf-8")
    (tmp_path / "latin1.json").write_bytes('{"output_dir": "café"}'.encode("latin-1"))
    _write_config(
        tmp_path,
        {"line": {"t0_us": -1.0, "gamma_prime_rad_per_us": 1.0}},
        name="bad_field.json",
    )
    _write_config(
        tmp_path, {"medium": dict(MEDIUM, gamma_rad_per_us=-1.0)}, name="bad_medium.json"
    )
    # 2.6 samples per pulse sigma: the arrival fit finds the peak undersampled
    _write_config(
        tmp_path,
        {
            "line": {"t0_us": 0.28, "line_center_transmission": 0.5},
            "grid": {"n_samples": 256, "span_sigmas": 100.0},
            "propagation": "ideal",
        },
        name="coarse.json",
    )
    # beta < 0 would be a delaying line with gain: outside the model
    _write_config(
        tmp_path, {"medium": dict(MEDIUM, beta_rad_per_us=-0.0022)}, name="delaying.json"
    )
    # a JSON integer too large for a float
    _write_config(
        tmp_path,
        {"line": {"t0_us": 0.28, "line_center_transmission": 0.5}, "pulse": {"sigma_us": 10**400}},
        name="huge.json",
    )
    # two angles whose post-selected traces would share one file name
    _write_config(tmp_path, dict(QUICK_START, theta_list_deg=[-40.001, -40.004]), name="colliding.json")
    # a line that advances nothing leaves no arrival shift to measure
    _write_config(tmp_path, NO_ADVANCE, name="no_advance.json")
    # a pulse so wide that its squared times overflow, and one so bright
    # that its energy does
    _write_config(tmp_path, dict(QUICK_START, pulse={"sigma_us": 1e300}), name="wide.json")
    _write_config(tmp_path, dict(QUICK_START, pulse={"amplitude": 1e300}), name="bright.json")
    # every output assumes in-phase arms; the key that set a phase is gone
    _write_config(tmp_path, dict(QUICK_START, relative_phase=0.3), name="phased.json")
    # a subnormal throughput would overflow 2/T on the optimizer's angle grid
    _write_config(tmp_path, dict(QUICK_START, transmission_list=[1e-310]), name="subnormal.json")
    # the given section is the line model; there is no key that names it
    _write_config(tmp_path, dict(QUICK_START, mode="reduced"), name="moded.json")
    # gamma' = 1e308 rad/s: 2 gamma' overflows and every advance would read 0
    wide_line = {"line": {"t0_us": 1e-300, "gamma_prime_rad_per_us": 1e302}}
    _write_config(tmp_path, wide_line, name="wide_line.json")
    # json alone keeps the last of two equal keys
    (tmp_path / "repeated_key.json").write_text(
        '{"line": {"t0_us": 0.28, "line_center_transmission": 0.5, "t0_us": 0.5}}',
        encoding="utf-8",
    )
    (tmp_path / "two_lines.json").write_text(
        '{"line": {"t0_us": 0.28, "line_center_transmission": 0.5},'
        ' "line": {"t0_us": 0.5, "line_center_transmission": 0.5}}',
        encoding="utf-8",
    )
    argv = [a.format(tmp=tmp_path) for a in argv]
    default_out = "--out" not in argv
    if default_out:
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    if default_out:
        assert not (tmp_path / "out").exists()


# line parameters whose float square overflows, line widths whose square
# underflows, and pulses whose grid step would overflow squared frequencies or
# whose width squared underflows to 0
WIDE_LINE = {"line": {"t0_us": 1e-160, "gamma_prime_rad_per_us": 1e150}}
NARROW_LINE = {"line": {"t0_us": 0.28, "gamma_prime_rad_per_us": 1e-300}}
# t0 = 1e300 us at half transmission gives gamma' = 3.5e-295 rad/s
LONG_LINE = {"line": {"t0_us": 1e300, "line_center_transmission": 0.5}}
NARROW_MEDIA = [
    {"medium": {**MEDIUM, "gamma_rad_per_us": gamma, "omega_c_rabi_mhz": 0.0}}
    for gamma in (1e-300, 1e-200)
]
NARROW_GAMMA = {"medium": {**MEDIUM, "Gamma_rad_per_us": 1e-200, "Delta_rad_per_us": 1e-190}}
del NARROW_GAMMA["medium"]["Gamma_mhz"], NARROW_GAMMA["medium"]["Delta_mhz"]
HUGE_DELTA = {"medium": {**MEDIUM, "Delta_rad_per_us": 1e200}}
del HUGE_DELTA["medium"]["Delta_mhz"]
HUGE_RABI = {"medium": {**MEDIUM, "omega_c_rabi_rad_per_us": 1e200}}
del HUGE_RABI["medium"]["omega_c_rabi_mhz"]
SQUARE_OVERFLOWS = [
    *[(command, WIDE_LINE, "gamma_prime") for command in ("spectrum", "propagate")],
    *[
        (command, config, name)
        for config, name in ((HUGE_DELTA, "medium.Delta"), (HUGE_RABI, "medium.omega_c_rabi"))
        for command in ("spectrum", "propagate", "sweep-theta", "loss-scaling", "crossover")
    ],
    ("propagate", dict(QUICK_START, pulse={"sigma_us": 1e-160}), "grid"),
    ("propagate", dict(QUICK_START, pulse={"sigma_us": 1e-150}), "grid"),
    ("sweep-theta", dict(QUICK_START, pulse={"sigma_us": 1e-150}), "grid"),
    # a wide grid lets the step pass while sigma^2 still underflows
    ("propagate", dict(QUICK_START, pulse={"sigma_us": 1e-160}, grid={"span_sigmas": 1e20}),
     "sigma"),
    # squares that underflow: the loss budget never squares a line section's gamma'
    *[
        (command, config, "gamma_prime")
        for config in (NARROW_LINE, LONG_LINE)
        for command in ("spectrum", "propagate", "sweep-theta")
    ],
    *[
        (command, config, name)
        for config, name in (
            *[(medium, "medium.gamma'") for medium in NARROW_MEDIA],
            (NARROW_GAMMA, "medium.Gamma"),
        )
        for command in ("spectrum", "propagate", "sweep-theta", "loss-scaling", "crossover")
    ],
]


@pytest.mark.parametrize("command, config, name", SQUARE_OVERFLOWS)
def test_squares_out_of_float_range_exit_2_naming_the_parameter(
    tmp_path, capsys, command, config, name
):
    cfg = _write_config(tmp_path, config)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name}") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("sigma_us", [1e-160, 1e-150])
def test_too_short_pulse_exits_2_under_python_warnings_as_errors(tmp_path, sigma_us):
    cfg = _write_config(tmp_path, dict(QUICK_START, pulse={"sigma_us": sigma_us}))
    out = tmp_path / "out"
    argv = ["propagate", "--config", cfg, "--out", str(out)]
    child = _run_fresh("-W", "error", "-m", "fastlight.cli", *argv)
    assert child.returncode == 2
    assert child.stderr.startswith("error: grid") and child.stderr.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "command, config, message",
    [
        (
            "propagate",
            {"line": {"t0_us": 0.28, "gamma_prime_rad_per_us": 1e-106}},
            "error: pulse bandwidth 1.786e+04 rad/s exceeds 10 gamma'; narrowband line "
            "parameters are marginal for this pulse\n",
        ),
        (
            "spectrum",
            {"medium": dict(MEDIUM, Delta_mhz=300.0)},
            "error: |Delta|/Gamma = 50 is below 100; the Lorentzian limit is marginal\n",
        ),
    ],
    ids=["bandwidth", "detuning"],
)
def test_approximation_warning_as_error_exits_2_with_one_line(tmp_path, command, config, message):
    # under -W error the warning is raised as an exception; main reports it
    # as a bad input, before any output exists
    out = tmp_path / "out"
    argv = [command, "--config", _write_config(tmp_path, config), "--out", str(out)]
    child = _run_fresh("-W", "error", "-m", "fastlight.cli", *argv)
    assert (child.returncode, child.stderr) == (2, message)
    assert not out.exists()


ANGLE_COMMANDS = (["propagate"], ["sweep-theta", "--count", "4"])


def _sub_resolution_line(t0_over_sigma):
    """A quick-start line whose advance is ``t0_over_sigma`` of the 28 us pulse."""
    return {"line": {"t0_us": t0_over_sigma * 28.0, "gamma_prime_rad_per_us": 1.2}}


@pytest.mark.parametrize("command", ANGLE_COMMANDS, ids=lambda argv: argv[0])
@pytest.mark.parametrize("t0_over_sigma", [1e-15, 1e-18, 1e-22])
def test_an_advance_below_the_fit_resolution_warns_once(tmp_path, command, t0_over_sigma):
    # the fitted centres round at about 1e-16 sigma, so such an advance is
    # mostly rounding; the run still writes its files and exits 0
    cfg = _write_config(tmp_path, _sub_resolution_line(t0_over_sigma))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([*command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert [w.category for w in caught] == [ApproximationWarning]
    assert "is below 1e-12 pulse widths" in str(caught[0].message)


@pytest.mark.parametrize("command", ANGLE_COMMANDS, ids=lambda argv: argv[0])
@pytest.mark.parametrize("config", [QUICK_START, {"medium": MEDIUM}], ids=["quick-start", "medium"])
def test_a_resolved_advance_does_not_warn(tmp_path, command, config):
    # t0/sigma = 0.01 in the quick start and the README medium
    cfg = _write_config(tmp_path, config)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("command", ANGLE_COMMANDS, ids=lambda argv: argv[0])
def test_an_unresolved_advance_under_warnings_as_errors_exits_2(tmp_path, command):
    out = tmp_path / "out"
    argv = [*command, "--config", _write_config(tmp_path, _sub_resolution_line(1e-15))]
    child = _run_fresh("-W", "error", "-m", "fastlight.cli", *argv, "--out", str(out))
    assert (child.returncode, child.stderr) == (
        2,
        "error: line advance t0 = 2.800e-20 s is below 1e-12 pulse widths (2.800e-17 s), "
        "where the fitted advances can round by more than 1e-3 of themselves\n",
    )
    assert not out.exists()


# theta = 90 deg: A_w = cos(theta) / (sin(theta) + cos(theta)) = 6.1e-17, so
# the quick start's predicted advance, 1.7e-23 s, is mostly rounding
AT_90_DEG = (["propagate", "--theta", "90"], ["sweep-theta", "--start", "89", "--stop", "90",
                                              "--count", "2"])
AT_90_DEG_WARNING = (
    "predicted advance |A_w| t0 at analyzer angle 90.0 deg = 1.715e-23 s is below 1e-12 pulse "
    "widths (2.800e-17 s), where the fitted advances can round by more than 1e-3 of themselves"
)


@pytest.mark.parametrize("command", AT_90_DEG, ids=lambda argv: argv[0])
def test_a_row_advance_below_the_fit_resolution_warns_once_naming_the_angle(tmp_path, command):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([*command, "--out", str(tmp_path / "out")]) == 0
    assert [(w.category, str(w.message)) for w in caught] == [
        (ApproximationWarning, AT_90_DEG_WARNING)
    ]


@pytest.mark.parametrize("command", AT_90_DEG, ids=lambda argv: argv[0])
def test_a_row_advance_below_the_fit_resolution_under_warnings_as_errors_exits_2(
    tmp_path, command
):
    out = tmp_path / "out"
    child = _run_fresh("-W", "error", "-m", "fastlight.cli", *command, "--out", str(out))
    assert (child.returncode, child.stdout) == (2, "")
    assert child.stderr == f"error: {AT_90_DEG_WARNING}\n"
    assert not out.exists()


@pytest.mark.parametrize("config", [QUICK_START, {"medium": MEDIUM}], ids=["quick-start", "medium"])
@pytest.mark.parametrize(
    "command",
    [["propagate"], ["sweep-theta", "--start", "-85", "--stop", "89.99", "--count", "2"]],
    ids=lambda argv: argv[0],
)
def test_rows_near_the_ends_of_the_range_do_not_warn(tmp_path, config, command):
    # |A_w| is 0.096 at -85 deg and 1.7e-4 at 89.99 deg: with t0/sigma = 0.01
    # the predicted advance stays far above 1e-12 pulse widths
    cfg = _write_config(tmp_path, dict(config, theta_list_deg=[-85.0, 89.99]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0


GRID_LIMITS = (
    "error: grid: span must be below 1e+150 s and step at least 1e-150 s, so that squares "
    "stay finite; got span {span} s, step {step} s, from pulse.sigma_us = {sigma} and "
    "grid.span_sigmas = {spans}\n"
)


@pytest.mark.parametrize(
    "command", ["spectrum", "propagate", "sweep-theta", "loss-scaling", "crossover"]
)
def test_every_command_checks_the_grid_of_its_own_pulse_at_load(tmp_path, capsys, command):
    # span and step are the configured pulse width times span_sigmas, not a
    # 1 s width's: each command refuses the first two grids at load time
    refused = [
        ({"sigma_us": 1e-160}, {}, dict(span="3.200e-165", step="7.812e-169", sigma="1e-160",
                                        spans="32")),
        ({}, {"span_sigmas": 1e240}, dict(span="2.800e+235", step="6.836e+231", sigma="28",
                                          spans="1e+240")),
    ]
    for pulse, grid, numbers in refused:
        cfg = _write_config(tmp_path, dict(QUICK_START, pulse=pulse, grid=grid))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == GRID_LIMITS.format(**numbers)
        assert not (tmp_path / "out").exists()
    # a 28 us pulse over 1e152 widths spans 2.8e147 s, inside the bound
    cfg = _write_config(tmp_path, dict(QUICK_START, grid={"span_sigmas": 1e152}))
    main([command, "--config", cfg, "--out", str(tmp_path / "out")])
    assert not capsys.readouterr().err.startswith("error: grid")


@pytest.mark.parametrize("command", ["loss-scaling", "crossover"])
def test_loss_budget_runs_on_a_line_too_wide_to_square(tmp_path, command):
    cfg = _write_config(tmp_path, WIDE_LINE)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("command", ["loss-scaling", "crossover"])
def test_loss_budget_runs_on_a_line_too_narrow_to_square(tmp_path, command):
    cfg = _write_config(tmp_path, NARROW_LINE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize(
    "command", ["spectrum", "propagate", "sweep-theta", "loss-scaling", "crossover"]
)
def test_a_medium_whose_advance_overflows_names_the_medium_section(tmp_path, capsys, command):
    cfg = _write_config(tmp_path, {"medium": {**MEDIUM, "beta_rad_per_us": 1e300}})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == "error: medium: the derived advance t0 is inf s, out of float range\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "thetas",
    [[-40.001, -40.004], [-30.0, -20.0, -30.0], [0.0, -0.0], [0.001, -0.001]],
)
def test_trace_name_collision_names_both_angles_and_the_file(tmp_path, capsys, thetas):
    cfg = _write_config(tmp_path, dict(QUICK_START, theta_list_deg=thetas))
    out = tmp_path / "out"
    assert main(["propagate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    first, second = thetas[0], thetas[-1]
    # a name never carries "-0.00": the sign of a zero angle is dropped
    digits = {-40.001: "-40.00", -30.0: "-30.00", 0.0: "0.00", 0.001: "0.00"}[first]
    name = f"trace_postselected_theta_{digits}.csv"
    assert f"{first!r} and {second!r} deg" in err and name in err
    assert not out.exists()


def test_spectrum_accepts_a_line_without_advance(tmp_path):
    cfg = _write_config(tmp_path, NO_ADVANCE)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    assert float(_read_kv(out / "spectrum_summary.csv")["t0_s"]) == 0.0


@pytest.mark.parametrize("theta", ["100", "-90", "-45.0000001"])
def test_out_of_range_angle_is_named_in_degrees(tmp_path, capsys, theta):
    out = tmp_path / "out"
    assert main(["propagate", "--theta", theta, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"{float(theta)!r} deg" in err and "np.float64" not in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--config", "--out"])
def test_empty_path_is_refused_by_its_flag(tmp_path, capsys, monkeypatch, flag):
    # Path("") is the working directory: neither it nor the config's
    # output_dir below it may receive the output
    monkeypatch.chdir(tmp_path)
    assert main(["crossover", flag, ""]) == 2
    assert capsys.readouterr().err == f"error: {flag}: must be a non-empty path\n"
    assert list(tmp_path.iterdir()) == []


# each command's first computation: a refused output directory stops the
# command before it
FIRST_COMPUTATION = {
    "spectrum": "phase_slope",
    "propagate": "make_gaussian",
    "sweep-theta": "make_gaussian",
    "loss-scaling": "t_wva",
    "crossover": "crossover",
}


@pytest.mark.parametrize("command", list(FIRST_COMPUTATION))
@pytest.mark.parametrize("where", ["output_dir", "--out"])
def test_nul_in_the_output_directory_exits_2_before_computing(
    tmp_path, capsys, monkeypatch, command, where
):
    def computed(*args):
        raise AssertionError(f"{command} computed before refusing its output directory")

    monkeypatch.setattr(fastlight.cli, FIRST_COMPUTATION[command], computed)
    monkeypatch.chdir(tmp_path)
    if where == "output_dir":
        argv = ["--config", _write_config(tmp_path, dict(QUICK_START, output_dir="a\x00b"))]
    else:
        argv = ["--out", "a\x00b"]
    before = sorted(tmp_path.iterdir())
    assert main([command, *argv]) == 2
    assert capsys.readouterr().err == f"error: {where}: must not contain a NUL character\n"
    assert sorted(tmp_path.iterdir()) == before


def test_theta_out_of_range_is_named_by_its_flag(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["propagate", "--theta", "100", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --theta: must lie in (-90, 90] deg; got 100.0 deg\n"
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--start", "--stop"])
def test_sweep_bound_out_of_range_is_named_by_its_flag(tmp_path, capsys, flag):
    out = tmp_path / "out"
    assert main(["sweep-theta", flag, "inf", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {flag}: must lie in (-90, 90] deg; got inf deg\n"
    assert not out.exists()


def test_advance_beyond_grid_exits_3(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        {
            "line": {"t0_us": 500.0, "line_center_transmission": 0.5},
            "propagation": "ideal",
        },
    )
    assert main(["propagate", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert "error:" in capsys.readouterr().err


def test_fit_failure_in_propagate_writes_nothing(tmp_path, capsys, monkeypatch):
    fit_gaussian = fastlight.cli.fit_gaussian
    calls = []

    def fail_on_the_h_arm(envelope):
        # one fit per configured angle (-40, -50), then the V arm, then the H arm
        calls.append(envelope)
        if len(calls) == 4:
            raise FitFailureError("forced fit failure", fallback=None)
        return fit_gaussian(envelope)

    monkeypatch.setattr(fastlight.cli, "fit_gaussian", fail_on_the_h_arm)
    out = tmp_path / "out"
    assert main(["propagate", "--out", str(out)]) == 3
    assert capsys.readouterr().err == "error: forced fit failure\n"
    assert len(calls) == 4
    assert not list(out.glob("trace_*.csv"))
    assert not out.exists()


def test_unknown_command_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # argparse's own usage errors go through main like every other bad input:
    # no usage lines, no SystemExit, and not even the config's output_dir
    monkeypatch.chdir(tmp_path)
    assert main(["warp-speed"]) == 2
    assert capsys.readouterr() == ("", (
        "error: argument command: invalid choice: 'warp-speed' (choose from "
        "'spectrum', 'propagate', 'sweep-theta', 'loss-scaling', 'crossover')\n"))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "the following arguments are required: command"),
        (["crossover", "--bogus"], "unrecognized arguments: --bogus"),
        (["sweep-theta", "--count", "abc"], "argument --count: invalid int value: 'abc'"),
        (["propagate", "--theta"], "argument --theta: expected one argument"),
    ],
    ids=["no-command", "unknown-flag", "count-abc", "theta-without-value"],
)
def test_other_usage_errors_exit_2_with_one_line_and_no_output(
    tmp_path, capsys, monkeypatch, argv, message
):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep-theta", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: fastlight sweep-theta [-h]")


def test_parsed_defaults():
    parser = _build_parser()
    sweep = parser.parse_args(["sweep-theta"])
    assert (sweep.start, sweep.stop, sweep.count) == (-85.0, -5.0, 40)
    assert sweep.func is cmd_sweep_theta and sweep.config is None and sweep.out is None
    assert parser.parse_args(["propagate"]).theta is None


# Run in a fresh interpreter: this test session has scipy loaded already.
_SCIPY_FREE_RUNS = """
import sys
from fastlight.cli import main

out, medium = sys.argv[1], sys.argv[2]
for argv in (
    ["spectrum", "--out", out + "/quick"],
    ["spectrum", "--config", medium, "--out", out + "/medium"],
    ["loss-scaling", "--out", out + "/loss"],
    ["crossover", "--out", out + "/crossover"],
):
    assert main(argv) == 0, argv
loaded = [name for name in sys.modules if name == "scipy" or name.startswith("scipy.")]
assert not loaded, f"{len(loaded)} scipy modules loaded, e.g. {sorted(loaded)[:3]}"
sweep = ["sweep-theta", "--start", "-30", "--stop", "-10", "--count", "3"]
assert main(sweep + ["--out", out + "/sweep"]) == 0
assert main(["propagate", "--out", out + "/propagate"]) == 0
# the fits load MINPACK's extension, whose first call imports scipy's small
# callback module, but neither scipy.optimize nor scipy.linalg
assert "scipy.optimize._minpack" in sys.modules
subpackages = ("scipy.optimize", "scipy.linalg", "scipy.sparse", "scipy.special")
loaded = [name for name in sys.modules if name.startswith(subpackages)]
assert loaded == ["scipy.optimize._minpack"], loaded
"""

# Run in a fresh interpreter: lmder loaded by the fit first, scipy.optimize after.
_LMDER_THEN_SCIPY = """
import importlib
import sys
from fastlight import analysis

lmder = analysis._lmder()
assert "scipy.optimize" not in sys.modules
import scipy.optimize
from scipy.optimize import _minpack_py

minpack = importlib.import_module("scipy.optimize._minpack")
assert minpack is sys.modules["scipy.optimize._minpack"] is _minpack_py._minpack
assert minpack._lmder is lmder and analysis._lmder() is lmder
identity = [[1.0, 0.0], [0.0, 1.0]]
x, status = scipy.optimize.leastsq(lambda p: p - [1.0, 2.0], [0.0, 0.0], Dfun=lambda p: identity)
assert status in (1, 2, 3, 4) and list(x) == [1.0, 2.0], (x, status)
"""


def _run_fresh(*argv):
    """``python *argv`` in a fresh interpreter that imports this fastlight."""
    src = str(Path(fastlight.cli.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120
    )


def test_fit_free_commands_load_no_scipy(tmp_path):
    medium = _write_config(tmp_path, {"medium": MEDIUM}, name="medium.json")
    child = _run_fresh("-c", _SCIPY_FREE_RUNS, str(tmp_path / "out"), medium)
    assert child.returncode == 0, child.stderr


def test_scipy_optimize_imported_after_a_fit_shares_its_minpack():
    child = _run_fresh("-c", _LMDER_THEN_SCIPY)
    assert child.returncode == 0, child.stderr


def test_module_entry_point_exits_with_mains_code(tmp_path):
    # python -m fastlight.cli ends in sys.exit(main()): 0 on success, and 2
    # with one "error:" line for a bad input
    child = _run_fresh("-m", "fastlight.cli", "crossover", "--out", str(tmp_path / "out"))
    assert child.returncode == 0, child.stderr
    assert (tmp_path / "out" / "crossover.csv").is_file()
    bad = ["propagate", "--theta", "100", "--out", str(tmp_path / "bad")]
    child = _run_fresh("-m", "fastlight.cli", *bad)
    assert child.returncode == 2, child.stderr
    lines = child.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), child.stderr


def test_marginal_detuning_warns_once_per_command(tmp_path):
    # |Delta|/Gamma = 300/6 = 50: every far-detuned operation of the
    # physical spectrum is below the soft ratio, and the run warns once;
    # -W default overrides any PYTHONWARNINGS in the environment
    medium = _write_config(tmp_path, {"medium": dict(MEDIUM, Delta_mhz=300.0)}, name="m.json")
    argv = ["spectrum", "--config", medium, "--out", str(tmp_path / "out")]
    child = _run_fresh("-W", "default", "-m", "fastlight.cli", *argv)
    assert child.returncode == 0, child.stderr
    warned = [line for line in child.stderr.splitlines() if "ApproximationWarning" in line]
    assert len(warned) == 1, child.stderr
    assert warned[0].endswith(
        "ApproximationWarning: |Delta|/Gamma = 50 is below 100; the Lorentzian limit is marginal"
    )


# sweep-theta over several processes: cli._angle_table forks one child per
# extra chunk of fits (the angles, then the V arm) once each gets at least
# ceil(_MIN_FIT_SAMPLES_PER_PROCESS / n_samples) fits, 80 at 4096 samples.
# Two or three usable CPUs are claimed whatever the machine has; forking
# more processes than CPUs only slows the test down.
SPLIT_START, SPLIT_STOP = -84.7, -5.0


def _sweep_argv(count, out):
    return [
        "sweep-theta", "--start", repr(SPLIT_START), "--stop", repr(SPLIT_STOP),
        "--count", str(count), "--out", str(out),
    ]


def _claim_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _count_forks(monkeypatch):
    """The pids of the children forked from now on."""
    forks, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _fits_per_process(n_samples):
    return math.ceil(fastlight.cli._MIN_FIT_SAMPLES_PER_PROCESS / n_samples)


def test_process_count_follows_cpus_chunk_size_and_fork(monkeypatch):
    rows = fastlight.cli._MIN_TRACE_ROWS_PER_PROCESS
    minimum = _fits_per_process(4096)
    assert minimum == 80
    _claim_cpus(monkeypatch, 64)
    # the fits of the quick-start's propagate (2 angles, 2 arms) and of the
    # benchmark's warm-up sweep (24 angles, the V arm), at 4096 samples
    assert _fork._process_count(4, minimum) == 1
    assert _fork._process_count(25, minimum) == 1
    # propagate's trace writes: the quick-start's 4 files of 4096 rows
    assert _fork._process_count(4, math.ceil(rows / 4096)) == 1
    assert _fork._process_count(2 * minimum - 1, minimum) == 1
    assert _fork._process_count(2 * minimum, minimum) == 2
    # the benchmark's sweep: 1000 angles and the V arm
    assert _fork._process_count(1001, minimum) == min(64, 1001 // minimum)
    _claim_cpus(monkeypatch, 1)
    assert _fork._process_count(1001, minimum) == 1
    _claim_cpus(monkeypatch, 2)
    # the traces benchmark: 8 angles and 2 arms fitted, and 10 files written,
    # of 2^16 samples each
    assert _fork._process_count(10, _fits_per_process(2**16)) == 2
    # the threshold was re-measured and kept (see its comment): 128 fits of
    # 4096 samples and 4 of 2^16 would run faster split, but a threshold low
    # enough to split them also splits 2 fits of 2^18 or 64 of 4096, which
    # were not faster in 9 of 10 pairs; 2 fits of 2^19 split and win
    assert _fork._process_count(128, minimum) == 1
    assert _fork._process_count(4, _fits_per_process(2**16)) == 1
    assert _fork._process_count(2, _fits_per_process(2**18)) == 1
    assert _fork._process_count(2, _fits_per_process(2**19)) == 2
    assert _fork._process_count(10, math.ceil(rows / 2**16)) == 2
    monkeypatch.delattr(os, "fork")
    assert _fork._process_count(1001, minimum) == 1


def test_one_process_where_fork_would_warn(monkeypatch):
    # Python >= 3.12 warns when a process with other threads forks
    _claim_cpus(monkeypatch, 2)
    monkeypatch.setattr(_fork, "_FORK_WARNS_WITH_THREADS", False)
    assert _fork._process_count(1001, _fits_per_process(4096)) == 2
    monkeypatch.setattr(_fork, "_FORK_WARNS_WITH_THREADS", True)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert _fork._process_count(1001, _fits_per_process(4096)) == 1
    finally:
        release.set()
        thread.join()


@pytest.mark.parametrize("cpus, count", [(2, 200), (3, 257)])
def test_split_sweep_writes_the_one_process_bytes(tmp_path, monkeypatch, cpus, count):
    _claim_cpus(monkeypatch, 1)
    assert main(_sweep_argv(count, tmp_path / "one")) == 0
    _claim_cpus(monkeypatch, cpus)
    forks = _count_forks(monkeypatch)
    assert main(_sweep_argv(count, tmp_path / "split")) == 0
    assert len(forks) == cpus - 1
    _assert_no_child_left()
    one = (tmp_path / "one" / "sweep_theta.csv").read_bytes()
    assert (tmp_path / "split" / "sweep_theta.csv").read_bytes() == one
    assert one.count(b"\n") == count + 1


# 257 angles and the V arm over 3 processes: chunks [0, 86), [86, 172) and
# [172, 258), the last ending with the arm
@pytest.mark.parametrize(
    "failing", [[150], [200, 100], [100, 10]], ids=["one_child", "two_children", "parent_first"]
)
def test_split_sweep_raises_the_first_angles_failure(tmp_path, monkeypatch, capsys, failing):
    thetas = np.linspace(SPLIT_START, SPLIT_STOP, 257)
    post_select = fastlight.cli.post_select

    def fail_at_chosen_angles(propagated, theta):
        for index in failing:
            if abs(np.rad2deg(theta) - thetas[index]) < 1e-9:
                raise FitFailureError(f"forced failure at angle {index}", fallback=None)
        return post_select(propagated, theta)

    monkeypatch.setattr(fastlight.cli, "post_select", fail_at_chosen_angles)
    expected = f"error: forced failure at angle {min(failing)}\n"
    for cpus in (1, 3):
        _claim_cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}"
        assert main(_sweep_argv(257, out)) == 3
        assert capsys.readouterr().err == expected
        assert not out.exists()
        _assert_no_child_left()


def test_killed_child_exits_3_with_one_line(tmp_path, monkeypatch, capsys):
    parent = os.getpid()
    post_select = fastlight.cli.post_select

    def die_in_child(propagated, theta):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return post_select(propagated, theta)

    monkeypatch.setattr(fastlight.cli, "post_select", die_in_child)
    _claim_cpus(monkeypatch, 2)
    out = tmp_path / "out"
    assert main(_sweep_argv(200, out)) == 3
    err = capsys.readouterr().err
    assert err == (
        "error: the process fitting analyzer angles -44.6497 to -5 deg and the V arm"
        " ended without a result (killed by signal 9)\n"
    )
    assert not out.exists()
    _assert_no_child_left()


def test_failed_fork_exits_2_and_closes_its_pipe(tmp_path, monkeypatch, capsys):
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    _claim_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", no_fork)
    open_fds = len(os.listdir("/proc/self/fd"))
    out = tmp_path / "out"
    assert main(_sweep_argv(200, out)) == 2
    assert capsys.readouterr().err == "error: [Errno 11] Resource temporarily unavailable\n"
    assert len(os.listdir("/proc/self/fd")) == open_fds
    assert not out.exists()


# propagate on a 1024-sample grid writes 8 trace files, and with the rows
# threshold lowered to 2 files' worth, 2 or 3 claimed CPUs split them into
# chunks [0, 4) and [4, 8), or [0, 2), [2, 5) and [5, 8)
SPLIT_TRACES = dict(
    QUICK_START, grid={"n_samples": 1024}, theta_list_deg=[-80.0, -60.0, -40.0, -30.0, -20.0, -10.0]
)
TRACE_FILES = [
    "trace_h.csv", "trace_v.csv",
    *[f"trace_postselected_theta_{theta:.2f}.csv" for theta in SPLIT_TRACES["theta_list_deg"]],
]


def _split_traces(tmp_path, monkeypatch):
    """The propagate arguments of SPLIT_TRACES, with the rows threshold lowered."""
    monkeypatch.setattr(fastlight.cli, "_MIN_TRACE_ROWS_PER_PROCESS", 2 * 1024)
    return ["propagate", "--config", _write_config(tmp_path, SPLIT_TRACES)]


@pytest.mark.parametrize("cpus", [2, 3])
def test_split_propagate_writes_the_one_process_bytes(tmp_path, monkeypatch, cpus):
    argv = _split_traces(tmp_path, monkeypatch)
    _claim_cpus(monkeypatch, 1)
    assert main([*argv, "--out", str(tmp_path / "one")]) == 0
    _claim_cpus(monkeypatch, cpus)
    forks = _count_forks(monkeypatch)
    assert main([*argv, "--out", str(tmp_path / "split")]) == 0
    assert len(forks) == cpus - 1
    _assert_no_child_left()
    names = sorted(path.name for path in (tmp_path / "one").iterdir())
    assert names == sorted([*TRACE_FILES, "propagate_summary.csv"])
    assert sorted(path.name for path in (tmp_path / "split").iterdir()) == names
    for name in names:
        assert (tmp_path / "split" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


@pytest.mark.parametrize("blocked", [6, 1], ids=["child", "parent"])
def test_split_propagate_exits_2_naming_the_trace_it_cannot_write(
    tmp_path, monkeypatch, capsys, blocked
):
    argv = _split_traces(tmp_path, monkeypatch)
    _claim_cpus(monkeypatch, 2)
    out = tmp_path / "out"
    path = out / TRACE_FILES[blocked]
    path.mkdir(parents=True)
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: {str(path)!r}\n"
    assert not (out / "propagate_summary.csv").exists()
    _assert_no_child_left()


def test_killed_writer_child_exits_3_with_one_line(tmp_path, monkeypatch, capsys):
    argv = _split_traces(tmp_path, monkeypatch)
    parent = os.getpid()
    write_envelope_csv = fastlight.cli.write_envelope_csv

    def die_in_child(envelope, path):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        write_envelope_csv(envelope, path)

    monkeypatch.setattr(fastlight.cli, "write_envelope_csv", die_in_child)
    _claim_cpus(monkeypatch, 2)
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"error: the process writing {TRACE_FILES[4]} to {TRACE_FILES[7]} in {out}"
        " ended without a result (killed by signal 9)\n"
    )
    assert not (out / "propagate_summary.csv").exists()
    _assert_no_child_left()


# propagate's fits on the same grid: 6 angles, then the V and H arms, and with
# the fitted-samples threshold lowered to 2 fits' worth, 2 or 3 claimed CPUs
# split them into chunks [0, 4) and [4, 8), or [0, 2), [2, 5) and [5, 8)
def _split_fits(tmp_path, monkeypatch):
    """The propagate arguments of SPLIT_TRACES, with both thresholds lowered."""
    monkeypatch.setattr(fastlight.cli, "_MIN_FIT_SAMPLES_PER_PROCESS", 2 * 1024)
    return _split_traces(tmp_path, monkeypatch)


@pytest.mark.parametrize("cpus", [2, 3])
def test_split_fits_propagate_writes_the_one_process_bytes(tmp_path, monkeypatch, capsys, cpus):
    argv = _split_fits(tmp_path, monkeypatch)
    _claim_cpus(monkeypatch, 1)
    assert main([*argv, "--out", str(tmp_path / "one")]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("H advance ")
    _claim_cpus(monkeypatch, cpus)
    forks = _count_forks(monkeypatch)
    assert main([*argv, "--out", str(tmp_path / "split")]) == 0
    split = capsys.readouterr().out
    assert split == printed.replace(str(tmp_path / "one"), str(tmp_path / "split"))
    # one set of children for the fits, one for the trace writes
    assert len(forks) == 2 * (cpus - 1)
    _assert_no_child_left()
    names = sorted(path.name for path in (tmp_path / "one").iterdir())
    assert names == sorted([*TRACE_FILES, "propagate_summary.csv"])
    assert sorted(path.name for path in (tmp_path / "split").iterdir()) == names
    for name in names:
        assert (tmp_path / "split" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


def test_split_fits_propagate_raises_a_childs_fit_failure_and_writes_nothing(
    tmp_path, monkeypatch, capsys
):
    argv = _split_fits(tmp_path, monkeypatch)
    parent = os.getpid()
    fit_gaussian = fastlight.cli.fit_gaussian

    def fail_in_child(envelope):
        if os.getpid() != parent:
            raise FitFailureError("forced fit failure in a child", fallback=None)
        return fit_gaussian(envelope)

    monkeypatch.setattr(fastlight.cli, "fit_gaussian", fail_in_child)
    _claim_cpus(monkeypatch, 2)
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 3
    assert capsys.readouterr().err == "error: forced fit failure in a child\n"
    assert not out.exists()
    _assert_no_child_left()


def test_killed_fit_child_of_propagate_exits_3_naming_its_chunk(tmp_path, monkeypatch, capsys):
    argv = _split_fits(tmp_path, monkeypatch)
    parent = os.getpid()
    fit_gaussian = fastlight.cli.fit_gaussian

    def die_in_child(envelope):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return fit_gaussian(envelope)

    monkeypatch.setattr(fastlight.cli, "fit_gaussian", die_in_child)
    _claim_cpus(monkeypatch, 2)
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "error: the process fitting analyzer angles -20 to -10 deg and the V arm and the H arm"
        " ended without a result (killed by signal 9)\n"
    )
    assert not out.exists()
    _assert_no_child_left()


@pytest.mark.parametrize(
    "section,data",
    [
        ("line", {"line": {"t0_us": 1e300, "gamma_prime_rad_per_us": 1e-10}}),
        # a 1000 km cell: t0 = 2.8 s at gamma' = 1.24 rad/us, with chi as in the README
        ("medium", {"medium": dict(MEDIUM, length_cm=1e8)}),
    ],
)
def test_a_line_that_passes_no_light_is_refused_alike_by_each_command(
    tmp_path, capsys, section, data
):
    # exp(-2 gamma' t0) underflows to 0: each command refuses the line with
    # one message in t0 and gamma' that names the section that gave them
    config = _write_config(tmp_path, data)
    messages = set()
    for command in ("spectrum", "propagate", "sweep-theta"):
        assert main([command, "--config", config, "--out", str(tmp_path / "out")]) == 2
        messages.add(capsys.readouterr().err)
    assert not (tmp_path / "out").exists()
    (message,) = messages
    assert message.startswith(f"error: {section}: t0 = ") and message.count("\n") == 1
    assert message.endswith(
        "rad/us give a line-centre transmission exp(-2 gamma' t0) that underflows to 0\n"
    )
