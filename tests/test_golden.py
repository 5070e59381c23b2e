"""Golden outputs: every quick-start CSV of the five subcommands, by sha256.

Refactors must leave these bytes unchanged.  The digests were taken with
numpy 2.4.6 and scipy 1.17.1; another numpy or scipy build may round a last
printed digit differently, in which case a mismatch points at the
environment rather than the code.
"""

import hashlib

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


def test_quick_start_csvs_are_byte_identical_to_golden(tmp_path):
    for command in ("spectrum", "propagate", "sweep-theta", "loss-scaling", "crossover"):
        assert main([command, "--out", str(tmp_path)]) == 0
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.iterdir()
    }
    assert digests == QUICK_START_SHA256
