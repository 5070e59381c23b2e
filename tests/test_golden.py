"""Golden outputs, by sha256: every quick-start CSV of the five subcommands,
and the spectrum and propagate CSVs of the README physical medium and of
the quick-start line under ``propagation: "ideal"``.

Refactors must leave these bytes unchanged.  The digests were taken with
numpy 2.4.6 and scipy 1.17.1; another numpy or scipy build may round a last
printed digit differently, in which case a mismatch points at the
environment rather than the code.
"""

import hashlib
import json

import pytest

from fastlight.cli import main

QUICK_START_SHA256 = {
    "spectrum.csv": "a33bbb66a44dd06e1cb84b0e1a27d840c3e39491a8109c3ec3e6e30fad3d56d6",
    "spectrum_summary.csv": "6667dabd767212754889ac56ae8ae2c5004b08bf876bde027fb7690b916cd6e9",
    "trace_h.csv": "c04c76cd8a024e9f4b26213dafeec6e5e5de4aa2dce09593c9c8e77613d74878",
    "trace_v.csv": "8efcca2839f498ac406d32960653d9f3afc71ab8afbe4ce8db215964b861ae3f",
    "trace_postselected_theta_-40.00.csv": (
        "0795da54ddad35747ae8c6ff6d4e61a51e723f6db520d5cf5983097483c38ac6"
    ),
    "trace_postselected_theta_-50.00.csv": (
        "dea35f755be5b463e4928589a71da671fe25236f7f50ad2e516d1fdb33e0d60d"
    ),
    "propagate_summary.csv": "0ca8f7d490f9c8dbeeb2126ddccfac52bb208f011ae91169366d5f46c4944193",
    "sweep_theta.csv": "beb786b3232ee7bdecdcbe698cdc6fa5237ce091b3e221e31906c8af064fb18b",
    "loss_scaling.csv": "1edd6d727e3ef3c592620ff8b6a0e8d5a303aae9369a326de64c19c31561bd16",
    "loss_scaling_summary.csv": "2c02190c2f871517dbb3524ba7d199cd197bc7b8566c0a0d209117365b605bd8",
    "crossover.csv": "7732d2790b42deed74142723b3c569cae18981ea3bcb35d87463d864de4c7264",
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
    "spectrum.csv": "d82a25a084206e961597be54a545d529f48294f6c90d2053e7d0caf35f573129",
    "spectrum_summary.csv": "58ba0478a4b506a061c8ac0f595f4caa99264342c7169e095d1586b54046b297",
    "trace_h.csv": "4d872c6d2de9fea1a1767c90433ee997254f45425cf03902eed54c723c843da4",
    "trace_v.csv": "fbcf844474a09c95bdd53c4227eef513afa33da07857a953a47b57d192336645",
    "trace_postselected_theta_-40.00.csv": (
        "83e66eb626d1c0bdb177b81e3a990920da9809597dc7da020978574d94b4faee"
    ),
    "trace_postselected_theta_-50.00.csv": (
        "40d0481ac1161bfbe30e30bb3440ce6c336802b9608228e054f9633618102507"
    ),
    "propagate_summary.csv": "664eb972b5882b1aba478a6f2499e7915f9520c5e66f900eade54dc7456fdd28",
}

IDEAL = {"line": {"t0_us": 0.28, "line_center_transmission": 0.5}, "propagation": "ideal"}

IDEAL_SHA256 = {
    "spectrum.csv": "a33bbb66a44dd06e1cb84b0e1a27d840c3e39491a8109c3ec3e6e30fad3d56d6",
    "spectrum_summary.csv": "6667dabd767212754889ac56ae8ae2c5004b08bf876bde027fb7690b916cd6e9",
    "trace_h.csv": "a7488afc8340c567d94b119fc787a66d11f8ee5d5c8163491bc7a91574bca04b",
    "trace_v.csv": "8efcca2839f498ac406d32960653d9f3afc71ab8afbe4ce8db215964b861ae3f",
    "trace_postselected_theta_-40.00.csv": (
        "6cfb088e036d82baaa3bacb8f73268281b0dbee51a0f1a40faa2100894cd2225"
    ),
    "trace_postselected_theta_-50.00.csv": (
        "a2c02c92d5ba34b7cb63d93a35fd7c6b35d053954286d4c77181605622774501"
    ),
    "propagate_summary.csv": "7a7bc377a6aef3cafa016262e083fb993e1954c6d61e3e87656f09cdd541baf3",
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
