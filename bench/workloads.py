"""Seeded inputs and output checks for the benchmark workloads.

A workload is a list of ``fastlight`` command lines plus the JSON config
they read.  ``generate`` writes both into a directory from a seed; the
program under test sees only these generated files.  ``check`` reads the
CSV files one pass wrote and returns the problems it found, which make the
pass count as failed.

Only the standard library is used here, so that the same seed gives the
same inputs whatever numpy the program runs on.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

DARK_PORT_DEG = -45.0
WEAK_TOLERANCE = 0.02  # relative weak-value error allowed by acceptance criterion 2
WEAK_MARGIN_DEG = 5.0  # rows at least this far from the dark port must meet it
CLI_GUARD_DEG = 0.02  # the CLI refuses angles within 0.01 deg of the dark port
CROSSOVER = 0.0565946
CROSSOVER_TOLERANCE = 1e-5
THROUGHPUT_TOLERANCE = 0.01
KK_TOLERANCE = 0.02

QUICK_START_LINE = {"t0_us": 0.28, "line_center_transmission": 0.5}
README_MEDIUM = {
    "beta_rad_per_us": 0.0022,
    "gamma_rad_per_us": 1.2285,
    "Gamma_mhz": 6.0,
    "omega_c_rabi_mhz": 40.0,
    "Delta_mhz": 900.0,
    "length_cm": 10.0,
    "wavelength_nm": 794.98,
}

# Input sizes.  "full" is what the benchmark measures; "smoke" is the
# tiny version used for warm-up calls and the benchmark's own tests.
SIZES = {
    "full": {
        "sweep_angles": 1000,
        "budget_transmissions": 200,
        "traces_samples": 1 << 16,
        "traces_angles": 8,
        "spectrum_points": 20001,
    },
    "smoke": {
        "sweep_angles": 24,
        "budget_transmissions": 8,
        "traces_samples": 1 << 12,
        "traces_angles": 2,
        "spectrum_points": 1601,
    },
}

ITEM_UNITS = {"sweep": "angles", "budget": "transmissions", "traces": "CSV rows written"}


def linspace(start: float, stop: float, count: int) -> list[float]:
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count - 1)] + [stop]


def _sweep(rng: random.Random, size: dict, config: dict) -> tuple[list, dict]:
    count = size["sweep_angles"]
    while True:  # redraw the jitter until no angle falls on the CLI's dark-port guard
        start = round(-85.0 + rng.uniform(-1.0, 1.0), 6)
        stop = round(-5.0 + rng.uniform(-1.0, 1.0), 6)
        if min(abs(a - DARK_PORT_DEG) for a in linspace(start, stop, count)) >= CLI_GUARD_DEG:
            break
    config["line"] = dict(QUICK_START_LINE)
    config["grid"] = {"n_samples": 4096}
    argv = ["sweep-theta", "--start", repr(start), "--stop", repr(stop), "--count", str(count)]
    return [argv], {"start": start, "stop": stop, "count": count, "item_files": ["sweep_theta.csv"]}


def _budget(rng: random.Random, size: dict, config: dict) -> tuple[list, dict]:
    lo, hi = math.log(0.005), math.log(0.95)
    transmissions = [math.exp(rng.uniform(lo, hi)) for _ in range(size["budget_transmissions"])]
    config["line"] = dict(QUICK_START_LINE)
    config["transmission_list"] = transmissions
    expect = {"count": len(transmissions), "item_files": ["loss_scaling.csv"]}
    return [["loss-scaling"], ["crossover"]], expect


def _traces(rng: random.Random, size: dict, config: dict) -> tuple[list, dict]:
    angles: list[float] = []
    while len(angles) < size["traces_angles"]:
        a = round(rng.uniform(-80.0, -10.0), 2)
        a = a - WEAK_MARGIN_DEG if a < DARK_PORT_DEG else a + WEAK_MARGIN_DEG
        if round(a, 2) not in angles:  # trace file names carry the angle to 0.01 deg
            angles.append(round(a, 2))
    config["medium"] = dict(README_MEDIUM)
    config["grid"] = {"n_samples": size["traces_samples"]}
    config["spectrum_points"] = size["spectrum_points"]
    config["theta_list_deg"] = angles
    expect = {
        "spectrum_points": size["spectrum_points"],
        "samples": size["traces_samples"],
        "angles": angles,
        "item_files": None,  # every CSV row the pass writes
    }
    return [["spectrum"], ["propagate"]], expect


_GENERATORS = {"sweep": _sweep, "budget": _budget, "traces": _traces}
WORKLOADS = tuple(_GENERATORS)


def generate(workload: str, seed: int, size: str, directory: Path) -> dict:
    """Write the workload's config into ``directory`` and return its plan.

    The plan holds the argv of every CLI call of one pass, the output
    directory they write to, and what ``check`` expects to find there.
    """
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    config: dict = {"pulse": {"sigma_us": 28.0}}
    commands, expect = _GENERATORS[workload](rng, SIZES[size], config)
    config_path = directory / "config.json"
    config_path.write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")
    out = directory / "out"
    argvs = [argv + ["--config", str(config_path), "--out", str(out)] for argv in commands]
    return {
        "workload": workload,
        "seed": seed,
        "size": size,
        "item_unit": ITEM_UNITS[workload],
        "commands": argvs,
        "out": str(out),
        "expect": expect,
    }


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _read_kv(path: Path) -> dict:
    return {row["quantity"]: row["value"] for row in _read_rows(path)}


def _check_sweep(out: Path, expect: dict, problems: list, info: dict) -> None:
    rows = _read_rows(out / "sweep_theta.csv")
    if len(rows) != expect["count"]:
        problems.append(f"sweep_theta.csv has {len(rows)} rows, expected {expect['count']}")
    if rows and (
        abs(float(rows[0]["theta_deg"]) - expect["start"]) > 1e-9
        or abs(float(rows[-1]["theta_deg"]) - expect["stop"]) > 1e-9
    ):
        problems.append("sweep_theta.csv does not span the requested angles")
    near = near_off = weak = 0
    for row in rows:
        theta = float(row["theta_deg"])
        deviation = float(row["relative_deviation"])
        weak += deviation <= WEAK_TOLERANCE
        if abs(theta - DARK_PORT_DEG) < WEAK_MARGIN_DEG:
            near += 1
            near_off += deviation > WEAK_TOLERANCE
            continue
        if deviation > WEAK_TOLERANCE:
            problems.append(f"theta {theta:.4f}: amplification {deviation:.2%} off A_w")
        if (float(row["amplification_fitted"]) > 0) != (theta > DARK_PORT_DEG):
            problems.append(f"theta {theta:.4f}: amplification has the wrong sign")
    info.update(fitted_rows=len(rows), weak_rows=weak, near_dark_rows=near, near_dark_off=near_off)


def _check_budget(out: Path, expect: dict, problems: list, info: dict) -> None:
    rows = _read_rows(out / "loss_scaling.csv")
    if len(rows) != expect["count"]:
        problems.append(f"loss_scaling.csv has {len(rows)} rows, expected {expect['count']}")
    for name in ("crossover.csv", "loss_scaling_summary.csv"):
        tstar = float(_read_kv(out / name)["crossover_transmission"])
        if abs(tstar - CROSSOVER) > CROSSOVER_TOLERANCE:
            problems.append(f"{name}: crossover {tstar!r} is not {CROSSOVER}")
    for row in rows:
        t = float(row["transmission"])
        if t < CROSSOVER and not float(row["t_wva_norm"]) >= float(row["t_atom_norm"]):
            problems.append(f"T {t:.6g}: post-selected advance below the bare line")
    info.update(fitted_rows=0, weak_rows=0)


def _check_traces(out: Path, expect: dict, problems: list, info: dict, files: dict) -> None:
    kk = float(_read_kv(out / "spectrum_summary.csv")["kk_residual"])
    if not kk < KK_TOLERANCE:
        problems.append(f"kk_residual {kk!r} is not below {KK_TOLERANCE}")
    rows = _read_rows(out / "propagate_summary.csv")
    if len(rows) != len(expect["angles"]):
        problems.append(f"propagate_summary.csv has {len(rows)} rows")
    weak = 0
    for row in rows:
        deviation = float(row["relative_deviation"])
        weak += deviation <= WEAK_TOLERANCE
        if not deviation < WEAK_TOLERANCE:
            problems.append(f"theta {row['theta_deg']}: amplification {deviation:.2%} off A_w")
        measured = float(row["throughput_measured"])
        predicted = float(row["throughput_predicted"])
        if not abs(measured / predicted - 1.0) <= THROUGHPUT_TOLERANCE:
            problems.append(f"theta {row['theta_deg']}: throughput {measured:.6g} vs {predicted:.6g}")
    expected_rows = {"spectrum.csv": expect["spectrum_points"], "trace_h.csv": expect["samples"],
                     "trace_v.csv": expect["samples"]}
    for theta in expect["angles"]:
        expected_rows[f"trace_postselected_theta_{theta:.2f}.csv"] = expect["samples"]
    for name, n in expected_rows.items():
        got = files.get(name, {}).get("rows")
        if got != n:
            problems.append(f"{name}: {got} rows, expected {n}")
    info.update(fitted_rows=len(rows), weak_rows=weak, kk_residual=kk)


def check(plan: dict, files: dict) -> tuple[list[str], dict]:
    """Problems found in one pass's output, and facts the trace reports.

    ``files`` maps each output file name to its ``rows`` (data lines).
    A missing or unreadable file is itself a problem.
    """
    out = Path(plan["out"])
    problems: list[str] = []
    info: dict = {}
    try:
        if plan["workload"] == "sweep":
            _check_sweep(out, plan["expect"], problems, info)
        elif plan["workload"] == "budget":
            _check_budget(out, plan["expect"], problems, info)
        else:
            _check_traces(out, plan["expect"], problems, info, files)
    except (OSError, KeyError, ValueError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    item_files = plan["expect"]["item_files"]
    info["items"] = sum(f["rows"] for name, f in files.items()
                        if item_files is None or name in item_files)
    return problems, info
