"""Command-line driver: deterministic CSV pipelines over the core library.

Subcommands:

    spectrum      line transfer function (and, in physical mode, the
                  susceptibility) on a detuning grid, plus a summary with a
                  causality self-check
    propagate     synthesize the two-polarization pulse, pass H through the
                  line, post-select at the configured analyzer angles, and
                  report fitted arrival shifts against the reference arm
    sweep-theta   amplification versus analyzer angle compared with the
                  weak-value prediction
    loss-scaling  bare-line versus post-selected advance at equal throughput
    crossover     the throughput where the two schemes break even

Every command reads an optional JSON config (--config; a built-in
quick-start is used otherwise) and writes CSV files into the output
directory (--out overrides the configured one).  Output is byte-identical
across reruns of the same configuration: fixed column orders, every number
in ``%.12e`` (13 significant digits), no timestamps.

Exit codes: 0 success, 2 invalid parameters or config (a ParameterError, an
unusable --out or --config path, or an ApproximationWarning that Python's
warnings filter, e.g. ``-W error``, raises as an exception), 3 a
NumericalError.  Every result is computed before the output directory is
created, so a bad input or a failed computation writes nothing.  A failed
write (exit 2) or a propagate writer process that dies (exit 3) leaves the
directory and any files written so far.  Large fit and trace sets run on
every usable CPU (see _MIN_FIT_SAMPLES_PER_PROCESS, _MIN_TRACE_ROWS_PER_PROCESS).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from ._csvout import write_csv, write_kv
from ._fork import ordered_map
from .analysis import crossover, fit_gaussian, t_atom, t_wva
from .atomic_response import (
    absorption,
    chi_lorentzian,
    group_index,
    kk_check,
    kramers_kronig_residual,
    light_shift,
    phase_slope,
    power_broadening,
    transfer_exponent,
    transmission,
)
from .config import RunConfig, default_config, load_config
from .errors import (
    ApproximationWarning, NumericalError, ParameterError, check_angle_deg, check_path
)
from .pulse_engine import (
    make_gaussian,
    prepare_input,
    propagate_ideal,
    propagate_lorentzian,
    write_envelope_csv,
)
from .weak_value import post_select, total_transmission, weak_value

_SPECTRUM_HALF_SPAN = 10.0  # spectrum grid extends +- this many gamma'
_KK_HALF_SPAN = 40.0
_KK_POINTS = 1 << 14
_DARK_PORT_GUARD_DEG = 0.01
_MAX_SWEEP_COUNT = 1 << 20
# Fewest fitted samples worth a process of their own; a fit of n_samples is
# the unit, so each process gets at least ceil(this / n_samples) fits: 80 at
# 4096 samples, 5 at 2^16.  Two processes against one through ordered_map,
# timed in one warm process on a 2-CPU machine (_angle_table, medians of 15
# alternated pairs; the quick-start line, the README medium at 2^16): at 4096
# samples 32 fits per process took 0.79 of the time (faster in 13 pairs) and
# 48 to 96 fits 0.55-0.60 (faster in all 15); 1 fit per process took 1.03 at
# 2^16 (faster in 2), 1.00 at 2^18 (in 6) and 0.78 at 2^19 (in 15); 2 to 4
# fits of 2^16 took 0.60-0.76 (in 15).  A lower threshold would split runs
# that are not faster in 9 of 10 pairs: 64 * 4096 splits 2 fits of 2^18, and
# 32 * 4096 also 32 fits of 4096 per process.
_MIN_FIT_SAMPLES_PER_PROCESS = 80 * 4096
# Fewest trace CSV rows worth a process of their own; a file of n_samples
# rows is the unit, so each process gets at least ceil(this / n_samples)
# files.  Two processes against one, timed in one warm process on a 2-CPU
# machine (medians of 9 to 15 alternated pairs, files of 1024 to 2^16 rows,
# with and without 60 MB more of the parent's memory to copy on write): at
# 2048 and 4096 rows each the split was 1.1-2.1 times as slow, at 8192 it
# took 0.84-1.03 of the time, at 16384 0.68-0.79 and from 32768 0.54-0.79.
# propagate's quick-start (4 files of 4096 rows) stays in one process.
_MIN_TRACE_ROWS_PER_PROCESS = 1 << 15
# sweep_theta.csv and loss_scaling_summary.csv: subsets, in order, of the
# propagate_summary.csv and crossover.csv quantities
_SWEEP_COLUMNS = (
    "theta_deg", "weak_value", "amplification_fitted", "relative_deviation", "throughput_measured"
)
_LOSS_SUMMARY_KEYS = (
    "crossover_transmission", "theta_opt_deg_at_crossover", "gamma_prime_rad_per_s"
)


def _out_dir(cfg: RunConfig, args) -> Path:
    """Create the output directory; commands call this only once every result
    is computed, so a bad input or a failed computation creates nothing."""
    out = Path(args.out if args.out is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load(args) -> RunConfig:
    """--config's run or the quick-start; an empty path would be the working directory."""
    for flag, path in (("--config", args.config), ("--out", args.out)):
        if path == "":
            raise ParameterError(f"{flag}: must be a non-empty path")
    if args.out is not None:
        check_path("--out", args.out)
    return load_config(args.config) if args.config is not None else default_config()


def cmd_spectrum(args) -> int:
    cfg = _load(args)
    line = cfg.reduced_line()
    gp = line.gamma_prime
    delta = np.linspace(-_SPECTRUM_HALF_SPAN * gp, _SPECTRUM_HALF_SPAN * gp, cfg.spectrum_points)
    slope = phase_slope(delta, line)  # first: it refuses a line too wide for the other columns
    phi = transfer_exponent(delta, line)
    kk_grid = np.linspace(-_KK_HALF_SPAN * gp, _KK_HALF_SPAN * gp, _KK_POINTS)
    columns = {
        "delta_prime_rad_per_s": delta,
        "loss_exponent_field": phi.imag,
        "phase_rad": phi.real,
        "group_advance_s": slope,
    }
    summary = {
        "mode": cfg.mode,
        "t0_s": line.t0,
        "gamma_prime_rad_per_s": gp,
        "line_center_transmission": transmission(line),
    }
    if cfg.mode == "physical":
        spec = cfg.medium.medium_spec()
        chi = chi_lorentzian(delta, spec)
        columns["chi_im"] = chi.imag
        columns["re_n_minus_1"] = chi.real / 2
        columns["group_index"] = group_index(delta, spec)
        summary["kk_residual"] = kk_check(spec, kk_grid)
        summary["light_shift_rad_per_s"] = light_shift(spec)
        summary["power_broadening_rad_per_s"] = power_broadening(spec)
        summary["alpha_per_m"] = absorption(spec)
        summary["group_index_line_center"] = group_index(0.0, spec)
    else:
        summary["kk_residual"] = kramers_kronig_residual(kk_grid, transfer_exponent(kk_grid, line))
    out = _out_dir(cfg, args)
    write_csv(out / "spectrum.csv", columns)
    write_kv(out / "spectrum_summary.csv", summary)
    print(f"wrote {out / 'spectrum.csv'} and {out / 'spectrum_summary.csv'}")
    return 0


def _check_analyzer_angles(thetas_deg) -> None:
    """Reject angles outside (-90, 90] deg and at the dark port."""
    for theta_deg in thetas_deg:
        check_angle_deg("analyzer angle", theta_deg)
        if abs(theta_deg - (-45.0)) < _DARK_PORT_GUARD_DEG:
            raise ParameterError(
                f"analyzer angle {float(theta_deg)!r} deg is within "
                f"{_DARK_PORT_GUARD_DEG:g} deg of the dark port at -45 deg, where "
                "the weak value diverges; move the angle away from -45 deg"
            )


def _propagated_state(cfg: RunConfig):
    """Common propagate/sweep front end: the line, its centre transmission
    and the propagated two-arm state."""
    line = cfg.reduced_line()
    if not (line.t0 > 0):
        raise ParameterError(
            "line advance t0 must be > 0 to measure an arrival shift"
        )
    source = make_gaussian(cfg.time_grid, cfg.pulse_sigma_s(), 0.0, cfg.pulse.amplitude)
    t_tilde = transmission(line)
    propagate = propagate_ideal if cfg.propagation == "ideal" else propagate_lorentzian
    return line, t_tilde, propagate(prepare_input(source, t_tilde), line)


def _trace_names(thetas_deg) -> dict:
    """``{file name: angle}``, one post-selected trace per angle, in order;
    two angles that would share a file are refused."""
    names = {}
    for theta_deg in thetas_deg:
        # rounded first, so that 0.0, -0.0 and -0.001 share "0.00"
        name = f"trace_postselected_theta_{round(theta_deg, 2) + 0.0:.2f}.csv"
        if name in names:
            raise ParameterError(
                f"analyzer angles {names[name]!r} and {theta_deg!r} deg would both "
                f"write {name}, whose name carries the angle to 0.01 deg"
            )
        names[name] = theta_deg
    return names


def _angle_table(propagated, line, t_tilde, thetas_deg, arms=("V",)) -> tuple:
    """The ``propagate_summary.csv`` columns, a row per analyzer angle, and
    ``{arm: fitted centre}`` for each of ``arms`` ("V", and "H" if named).  Only
    the fits need the propagated pulse: the angles, then the arms, go through
    ``ordered_map``, a chunk of fits per process.  The amplification is the
    advance over the reference (V) arm in units of the line's own advance
    ``line.t0``."""
    envelopes = {"H": propagated.h, "V": propagated.v}

    def fit(item):
        if item in envelopes:
            return fit_gaussian(envelopes[item]).center
        selected = post_select(propagated, np.deg2rad(item))
        fit = fit_gaussian(selected.envelope)
        return fit.center, fit.residual_rms, selected.throughput

    def describe(chunk):
        angles = [item for item in chunk if item not in envelopes]
        named = [f"analyzer angles {angles[0]:g} to {angles[-1]:g} deg"] if angles else []
        return "fitting " + " and ".join(named + [f"the {arm} arm" for arm in chunk[len(angles):]])

    fits_per_process = -(-_MIN_FIT_SAMPLES_PER_PROCESS // propagated.h.grid.n_samples)
    fits = ordered_map(fit, [*thetas_deg, *arms], fits_per_process, describe)
    centers = dict(zip(arms, fits[len(thetas_deg):]))
    selected_centers, residuals, throughputs = np.array(fits[: len(thetas_deg)]).T
    thetas = [np.deg2rad(theta_deg) for theta_deg in thetas_deg]
    a_w = np.array([weak_value(theta) for theta in thetas])
    advance = centers["V"] - selected_centers
    amplification = advance / line.t0
    table = {
        "theta_deg": thetas_deg,
        "weak_value": a_w,
        "center_v_s": np.full(len(thetas), centers["V"]),
        "center_selected_s": selected_centers,
        "advance_s": advance,
        "amplification_fitted": amplification,
        "relative_deviation": np.abs(amplification - a_w) / np.abs(a_w),
        "throughput_measured": throughputs,
        "throughput_predicted": [total_transmission(t_tilde, theta) for theta in thetas],
        "fit_residual_rms": residuals,
    }
    return table, centers


def _write_traces(propagated, angle_of: dict, out: Path) -> list:
    """Write ``trace_h.csv``, ``trace_v.csv`` and the post-selected trace of
    each ``{file name: angle in deg}`` into ``out``, and return the names in
    that order; large trace sets are written a chunk of files per process by
    ``ordered_map``, each process rebuilding its own post-selected envelopes."""
    arms = {"trace_h.csv": propagated.h, "trace_v.csv": propagated.v}

    def write(name):
        if name in arms:
            envelope = arms[name]
        else:
            envelope = post_select(propagated, np.deg2rad(angle_of[name])).envelope
        write_envelope_csv(envelope, out / name)
        return name

    def describe(names):
        return f"writing {names[0]} to {names[-1]} in {out}"

    files_per_process = -(-_MIN_TRACE_ROWS_PER_PROCESS // propagated.h.grid.n_samples)
    return ordered_map(write, [*arms, *angle_of], files_per_process, describe)


def cmd_propagate(args) -> int:
    cfg = _load(args)
    thetas = [args.theta] if args.theta is not None else list(cfg.theta_list_deg)
    _check_analyzer_angles(thetas)
    trace_names = _trace_names(thetas)
    line, t_tilde, propagated = _propagated_state(cfg)
    # every fit, the two arms' included, runs before any file is written, so a
    # failed one leaves no partial output; the post-selected envelopes are
    # rebuilt for writing rather than held, one grid-sized array per angle
    table, centers = _angle_table(propagated, line, t_tilde, thetas, ("V", "H"))

    out = _out_dir(cfg, args)
    # a failed write (exit 2) or a writer process that dies (exit 3) leaves no
    # propagate_summary.csv, but trace files of any chunk: in one process the
    # files before the failing one, after a split also those of the other
    # chunks, and the file a killed writer was in the middle of, cut short
    written = _write_traces(propagated, trace_names, out)
    write_csv(out / "propagate_summary.csv", table)
    written.append("propagate_summary.csv")
    print(
        f"H advance {centers['V'] - centers['H']:.6e} s over t0 {line.t0:.6e} s; "
        f"wrote {', '.join(written)} in {out}"
    )
    return 0


def cmd_sweep_theta(args) -> int:
    cfg = _load(args)
    if args.count < 2:
        raise ParameterError("--count: must be at least 2")
    if args.count > _MAX_SWEEP_COUNT:
        raise ParameterError(f"--count: must be at most {_MAX_SWEEP_COUNT}")
    check_angle_deg("--start", args.start)
    check_angle_deg("--stop", args.stop)
    thetas = [float(t) for t in np.linspace(args.start, args.stop, args.count)]
    _check_analyzer_angles(thetas)
    line, t_tilde, propagated = _propagated_state(cfg)
    table, _ = _angle_table(propagated, line, t_tilde, thetas)
    out = _out_dir(cfg, args)
    write_csv(out / "sweep_theta.csv", {key: table[key] for key in _SWEEP_COLUMNS})
    print(f"wrote {out / 'sweep_theta.csv'} ({args.count} angles)")
    return 0


def _crossover_summary(gp: float) -> dict:
    """The break-even throughput, the best angle and both advances there."""
    tstar = crossover(gp)
    advance, theta = t_wva(tstar, gp)
    return {
        "crossover_transmission": tstar,
        "theta_opt_deg_at_crossover": float(np.rad2deg(theta)),
        "advance_at_crossover_s": advance,
        "advance_norm_at_crossover": 2 * gp * advance,
        "t_atom_at_crossover_s": t_atom(tstar, gp),
        "gamma_prime_rad_per_s": gp,
    }


def cmd_loss_scaling(args) -> int:
    cfg = _load(args)
    gp = cfg.reduced_line().gamma_prime
    advances_wva, thetas = t_wva(cfg.transmission_list, gp)
    advances_atom = np.array([t_atom(t, gp) for t in cfg.transmission_list])
    columns = {
        "transmission": cfg.transmission_list,
        "t_atom_norm": 2 * gp * advances_atom,
        "t_wva_norm": 2 * gp * advances_wva,
        "theta_opt_deg": np.rad2deg(thetas),
        "t_atom_s": advances_atom,
        "t_wva_s": advances_wva,
    }
    summary = _crossover_summary(gp)
    out = _out_dir(cfg, args)
    write_csv(out / "loss_scaling.csv", columns)
    write_kv(out / "loss_scaling_summary.csv", {key: summary[key] for key in _LOSS_SUMMARY_KEYS})
    print(f"wrote {out / 'loss_scaling.csv'} and {out / 'loss_scaling_summary.csv'}")
    return 0


def cmd_crossover(args) -> int:
    cfg = _load(args)
    summary = _crossover_summary(cfg.reduced_line().gamma_prime)
    out = _out_dir(cfg, args)
    write_kv(out / "crossover.csv", summary)
    print(f"crossover transmission: {summary['crossover_transmission']:.6f}")
    print(f"wrote {out / 'crossover.csv'}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fastlight",
        description=(
            "Pulse advancement through an absorbing line and its "
            "amplification by polarization post-selection"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file (default: built-in quick-start)")
        p.add_argument("--out", help="output directory (overrides the config)")

    p = sub.add_parser("spectrum", help="line transfer function on a detuning grid")
    add_common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("propagate", help="propagate and post-select a pulse")
    add_common(p)
    p.add_argument(
        "--theta",
        type=float,
        help="single analyzer angle in degrees (overrides the config list)",
    )
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("sweep-theta", help="amplification versus analyzer angle")
    add_common(p)
    p.add_argument("--start", type=float, default=-85.0, help="first angle (deg)")
    p.add_argument("--stop", type=float, default=-5.0, help="last angle (deg)")
    p.add_argument("--count", type=int, default=40, help="number of angles")
    p.set_defaults(func=cmd_sweep_theta)

    p = sub.add_parser("loss-scaling", help="advance-at-fixed-loss comparison")
    add_common(p)
    p.set_defaults(func=cmd_loss_scaling)

    p = sub.add_parser("crossover", help="break-even throughput of the two schemes")
    add_common(p)
    p.set_defaults(func=cmd_crossover)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, ApproximationWarning, OSError) as exc:
        # OSError: an unusable --out or --config; ApproximationWarning: under -W error
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
