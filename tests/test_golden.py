"""Golden outputs, by sha256: every quick-start CSV of the five subcommands,
the spectrum and propagate CSVs of the README physical medium and of the
quick-start line under ``propagation: "ideal"``, the loss-scaling CSVs on a
dense transmission list, and a 1000-angle sweep shaped like the angle-sweep
benchmark.

Refactors must leave these bytes unchanged.  Two digests were re-frozen
when the physical spectrum's group index and index moved from finite
differences to the closed-form Lorentzian: ``PHYSICAL_SHA256["spectrum.csv"]``
(its ``group_index`` and ``re_n_minus_1`` columns) and
``PHYSICAL_SHA256["spectrum_summary.csv"]`` (its ``group_index_line_center``
row); every other column and row kept its bytes.  Two more were re-frozen
when the trace CSVs' ``intensity`` column moved from ``float_power(hypot(re,
im), 2)`` to ``Envelope.intensity``, re*re + im*im, the |z|^2 that every fit
and energy reads: ``QUICK_START_SHA256["trace_h.csv"]`` (2 of 4096 rows) and
``IDEAL_SHA256["trace_h.csv"]`` (1 row).  Only that column moved, and each
moved cell is closer to the exact |z|^2 of its sample.  Five more were
re-frozen when every angle row gained its comparison with a bare line at the
same loss: the quick-start ``propagate_summary.csv`` and ``sweep_theta.csv``,
``PHYSICAL_SHA256`` and ``IDEAL_SHA256``'s ``propagate_summary.csv``, and
``DENSE_SWEEP_SHA256["sweep_theta.csv"]``.  Each gained columns at its end
(``bare_advance_same_loss_s`` and ``advantage_over_bare`` in a summary,
``advantage_over_bare`` in a sweep); every other column kept its bytes.

The digests were taken with numpy 2.4.6 and scipy 1.17.1; another numpy or
scipy build may round a last printed digit differently, in which case a
mismatch points at the environment rather than the code.
"""

import hashlib
import json

import numpy as np
import pytest

from fastlight.cli import main

QUICK_START_SHA256 = {
    "spectrum.csv": "a33bbb66a44dd06e1cb84b0e1a27d840c3e39491a8109c3ec3e6e30fad3d56d6",
    "spectrum_summary.csv": "6667dabd767212754889ac56ae8ae2c5004b08bf876bde027fb7690b916cd6e9",
    "trace_h.csv": "e1e561351307a9c69818b5b5fb70a621a5625dad85d9f7e98233f46cd68aafb6",
    "trace_v.csv": "8efcca2839f498ac406d32960653d9f3afc71ab8afbe4ce8db215964b861ae3f",
    "trace_postselected_theta_-40.00.csv": (
        "0795da54ddad35747ae8c6ff6d4e61a51e723f6db520d5cf5983097483c38ac6"
    ),
    "trace_postselected_theta_-50.00.csv": (
        "dea35f755be5b463e4928589a71da671fe25236f7f50ad2e516d1fdb33e0d60d"
    ),
    "propagate_summary.csv": "06246b94e0a59292fa904bb2e72d5808a1b7cf4cf7799cc5d792f63ecdbf1bf4",
    "sweep_theta.csv": "f147043cca953f9ff3ca9cecc68beab8f32dfc1d7c539b6f8ac3d67925135f35",
    "loss_scaling.csv": "2ec7b6bef8591e6da441c17d8140cb3fd7f88b4c434078fb16a2767365e931e8",
    "loss_scaling_summary.csv": "64f2ef5234d9a9f0869e49214d1291bcb8247b3a461902fd508a50945ac82ff8",
    "crossover.csv": "6f59059ff9bf42756f9ed620e00756b8a5041a334ac403ff981ad7d195301a23",
}

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

PHYSICAL_SHA256 = {
    "spectrum.csv": "2ec91e9e969dbe739dd85ef7a47e7daf0980126f5d014e0785c6e4c5773029f6",
    "spectrum_summary.csv": "1079d3d92c281eaa09ad66d51b14051831cc80db47433113a6992e6bb9e7ae02",
    "trace_h.csv": "4d872c6d2de9fea1a1767c90433ee997254f45425cf03902eed54c723c843da4",
    "trace_v.csv": "fbcf844474a09c95bdd53c4227eef513afa33da07857a953a47b57d192336645",
    "trace_postselected_theta_-40.00.csv": (
        "83e66eb626d1c0bdb177b81e3a990920da9809597dc7da020978574d94b4faee"
    ),
    "trace_postselected_theta_-50.00.csv": (
        "40d0481ac1161bfbe30e30bb3440ce6c336802b9608228e054f9633618102507"
    ),
    "propagate_summary.csv": "6aa572fa08064724bd8837bf43786c1c2c1f21aebbba87432763cfd0bb1233a7",
}

IDEAL = {"line": {"t0_us": 0.28, "line_center_transmission": 0.5}, "propagation": "ideal"}

IDEAL_SHA256 = {
    "spectrum.csv": "a33bbb66a44dd06e1cb84b0e1a27d840c3e39491a8109c3ec3e6e30fad3d56d6",
    "spectrum_summary.csv": "6667dabd767212754889ac56ae8ae2c5004b08bf876bde027fb7690b916cd6e9",
    "trace_h.csv": "e27dd1cee71330e3de4f5043df08fc09e898efb5393fe385f3f514735406f976",
    "trace_v.csv": "8efcca2839f498ac406d32960653d9f3afc71ab8afbe4ce8db215964b861ae3f",
    "trace_postselected_theta_-40.00.csv": (
        "6cfb088e036d82baaa3bacb8f73268281b0dbee51a0f1a40faa2100894cd2225"
    ),
    "trace_postselected_theta_-50.00.csv": (
        "a2c02c92d5ba34b7cb63d93a35fd7c6b35d053954286d4c77181605622774501"
    ),
    "propagate_summary.csv": "062f3b9c4aa0a302df3b32aa6e9f0d9134739d3b81b327e1199edb23171b151e",
}

# 200 log-spaced transmissions over the range the loss-budget benchmark draws
# from, plus both extremes of the feasible range
DENSE_BUDGET = {
    "line": {"t0_us": 0.28, "line_center_transmission": 0.5},
    "transmission_list": [1e-4, *np.geomspace(0.005, 0.95, 200).tolist(), 0.999999],
}

DENSE_BUDGET_SHA256 = {
    "loss_scaling.csv": "bc19b9b9356713affa1f7132d5f94551fc6fc3c9f2c89c5a5dddc2517fc0ad3a",
    "loss_scaling_summary.csv": "64f2ef5234d9a9f0869e49214d1291bcb8247b3a461902fd508a50945ac82ff8",
}


# 1000 analyzer angles over the angle-sweep benchmark's range on its 4096-sample
# grid; two of them lie 0.04 deg from the dark port
DENSE_SWEEP = {
    "pulse": {"sigma_us": 28.0},
    "line": {"t0_us": 0.28, "line_center_transmission": 0.5},
    "grid": {"n_samples": 4096},
}
DENSE_SWEEP_ARGS = ["--start", "-85.3", "--stop", "-4.7", "--count", "1000"]
DENSE_SWEEP_SHA256 = {
    "sweep_theta.csv": "7695caba3e5f66e93eabb42de32e1509df2ddd3d9c452cca4e8bcf9681e15836",
}


def _digests(directory):
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in directory.iterdir()
    }


def test_quick_start_csvs_are_byte_identical_to_golden(tmp_path):
    for command in ("spectrum", "propagate", "sweep-theta", "loss-scaling", "crossover"):
        assert main([command, "--out", str(tmp_path)]) == 0
    assert _digests(tmp_path) == QUICK_START_SHA256


@pytest.mark.parametrize(
    "config, expected",
    [(README_MEDIUM, PHYSICAL_SHA256), (IDEAL, IDEAL_SHA256)],
    ids=["readme_medium", "ideal"],
)
def test_spectrum_and_propagate_csvs_are_byte_identical_to_golden(tmp_path, config, expected):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    for command in ("spectrum", "propagate"):
        assert main([command, "--config", str(path), "--out", str(out)]) == 0
    assert _digests(out) == expected


def test_dense_loss_scaling_csvs_are_byte_identical_to_golden(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(DENSE_BUDGET), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["loss-scaling", "--config", str(path), "--out", str(out)]) == 0
    assert _digests(out) == DENSE_BUDGET_SHA256


def test_dense_sweep_theta_csv_is_byte_identical_to_golden(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(DENSE_SWEEP), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["sweep-theta", *DENSE_SWEEP_ARGS, "--config", str(path), "--out", str(out)]) == 0
    assert _digests(out) == DENSE_SWEEP_SHA256
