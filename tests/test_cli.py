"""End-to-end CLI runs: files, schemas, determinism, and exit codes."""

import json

import numpy as np
import pytest

from fastlight.cli import main

MEDIUM = {
    "beta_rad_per_us": 0.0022,
    "gamma_rad_per_us": 1.2285,
    "Gamma_mhz": 6.0,
    "omega_c_rabi_mhz": 40.0,
    "Delta_mhz": 900.0,
    "length_cm": 10.0,
    "wavelength_nm": 794.98,
}


def _read_kv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "quantity,value"
    return dict(line.split(",", 1) for line in lines[1:])


def _write_config(tmp_path, data, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


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


def test_crossover_reports_break_even(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["crossover", "--out", str(out)]) == 0
    assert "crossover transmission: 0.056595" in capsys.readouterr().out
    values = _read_kv(out / "crossover.csv")
    assert float(values["crossover_transmission"]) == pytest.approx(
        0.056594612, abs=1e-5
    )
    # at the break-even point both schemes advance by the same amount
    assert float(values["advance_at_crossover_s"]) == pytest.approx(
        float(values["t_atom_at_crossover_s"]), rel=1e-3
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
    ],
)
def test_parameter_problems_exit_2(tmp_path, capsys, argv):
    (tmp_path / "broken.json").write_text("{oops", encoding="utf-8")
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
    argv = [a.format(tmp=tmp_path) for a in argv]
    default_out = "--out" not in argv
    if default_out:
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    if default_out:
        assert not (tmp_path / "out").exists()


def test_delaying_line_reads_the_weak_value(tmp_path):
    # beta < 0 turns the line into a delay of t0 (test_negative_beta_flags_delay);
    # the spectrum's phase slope and the fitted amplification follow the sign
    cfg = _write_config(
        tmp_path,
        {"medium": dict(MEDIUM, beta_rad_per_us=-0.0022), "spectrum_points": 101},
    )
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    assert main(["propagate", "--config", cfg, "--out", str(out)]) == 0
    spectrum = np.genfromtxt(out / "spectrum.csv", delimiter=",", names=True)
    t0 = float(_read_kv(out / "spectrum_summary.csv")["t0_s"])
    assert spectrum["group_advance_s"][50] == pytest.approx(-t0, rel=1e-6)
    assert np.all(np.diff(spectrum["phase_rad"][45:56]) < 0)
    table = np.genfromtxt(out / "propagate_summary.csv", delimiter=",", names=True)
    assert np.all(table["advance_s"] * table["weak_value"] < 0)
    assert np.all(table["relative_deviation"] < 0.02)


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


def test_unknown_command_is_a_usage_error():
    with pytest.raises(SystemExit):
        main(["warp-speed"])
