"""Command-line driver: deterministic CSV pipelines over the core library.

Subcommands:

    spectrum      line transfer function (and, in physical mode, the
                  susceptibility) on a detuning grid, plus a summary with a
                  causality self-check
    propagate     synthesize the two-polarization pulse, pass H through the
                  line, post-select at the configured analyzer angles, and
                  report fitted arrival shifts against the reference arm and
                  against a bare line with the same loss
    sweep-theta   amplification versus analyzer angle compared with the
                  weak-value prediction and with a bare line
    loss-scaling  bare-line versus post-selected advance at equal throughput
    crossover     the throughput where the two schemes break even

Every command reads an optional JSON config (--config; a built-in
quick-start is used otherwise) and writes CSV files into the output
directory (--out overrides the configured one).  Output is byte-identical
across reruns of the same configuration: fixed column orders, every number
in ``%.12e`` (13 significant digits), no timestamps.

Exit codes: 0 success, 2 invalid parameters or config (a ParameterError, a
usage error, an unusable --out or --config path, or an ApproximationWarning
that Python's warnings filter, e.g. ``-W error``, raises as an exception), 3 a
NumericalError.  Every result is computed before the output directory is
created, so a bad input or a failed computation writes nothing.  A failed
write (exit 2) or a propagate writer process that dies (exit 3) leaves the
directory and any files written so far.  Large fit and trace sets run on
every usable CPU (see _MIN_FIT_SAMPLES_PER_PROCESS, _MIN_TRACE_ROWS_PER_PROCESS).
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

import numpy as np

from ._csvout import write_csv, write_kv
from ._fork import ordered_map
from .analysis import crossover, fit_gaussian, t_atom, t_wva
from .atomic_response import (
    _KK_MIN_HALF_SPAN,
    ReducedLine,
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
_KK_HALF_SPAN = _KK_MIN_HALF_SPAN  # the least span kk_check accepts
_KK_POINTS = 1 << 14
_DARK_PORT_GUARD_DEG = 0.01
_MAX_SWEEP_COUNT = 1 << 20
# Fewest pulse widths in t0, and in |A_w| t0 where |A_w| < 1, that the fits resolve: at 4096
# and 2^16 samples a fitted advance rounds by up to 1e-15 sigma per unit A_w (2.7e-16 where
# |A_w| >= 0.5, about 1e-16 sigma where |A_w| is small), under 1e-3 of each row's advance
# from min(1, |A_w|) t0 = 1e-12 sigma up.
_MIN_RESOLVED_T0_SIGMAS = 1e-12
# Fewest fitted samples worth a process: ceil(this / n_samples) fits each, 80
# at 4096 samples, 5 at 2^16; lower values newly split runs that were no faster.
_MIN_FIT_SAMPLES_PER_PROCESS = 80 * 4096
# Fewest trace CSV rows worth a process: ceil(this / n_samples) files each;
# below about 2^14 rows a process, a fork costs more than it saves.
_MIN_TRACE_ROWS_PER_PROCESS = 1 << 15
# sweep_theta.csv and loss_scaling_summary.csv: subsets, in order, of the
# propagate_summary.csv and crossover.csv quantities
_SWEEP_COLUMNS = (
    "theta_deg", "weak_value", "amplification_fitted", "relative_deviation", "throughput_measured",
    "advantage_over_bare",
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


def cmd_spectrum(cfg: RunConfig, args) -> None:
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
    if cfg.mode == "physical":
        spec = cfg.medium.medium_spec()
        chi = chi_lorentzian(delta, spec)
        columns["chi_im"] = chi.imag
        columns["re_n_minus_1"] = chi.real / 2
        columns["group_index"] = group_index(delta, spec)
    summary = {
        "mode": cfg.mode,
        "t0_s": line.t0,
        "gamma_prime_rad_per_s": gp,
        # after group_index, which refuses a medium too dense for the line shape first
        "line_center_transmission": _line_transmission(cfg, line),
    }
    if cfg.mode == "physical":
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


def _line_transmission(cfg: RunConfig, line: ReducedLine) -> float:
    """The line-centre transmission exp(-2 gamma' t0), refused where it
    underflows to 0: such a line passes no light to measure."""
    t_tilde = transmission(line)
    if t_tilde == 0.0:
        raise ParameterError(
            f"{'line' if cfg.medium is None else 'medium'}: t0 = {line.t0 * 1e6:.3e} us and "
            f"gamma' = {line.gamma_prime * 1e-6:.3e} rad/us give a line-centre transmission "
            "exp(-2 gamma' t0) that underflows to 0"
        )
    return t_tilde


def _propagated_state(cfg: RunConfig):
    """Common propagate/sweep front end: the line, its centre transmission
    and the propagated two-arm state."""
    line = cfg.reduced_line()
    if not (line.t0 > 0):
        raise ParameterError("line advance t0 must be > 0 to measure an arrival shift")
    source = make_gaussian(cfg.time_grid, cfg.pulse_sigma_s(), 0.0, cfg.pulse.amplitude)
    t_tilde = _line_transmission(cfg, line)
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


def _angle_table(cfg: RunConfig, thetas_deg, arms=("V",)) -> tuple:
    """The one per-angle pass of propagate and sweep-theta: refuse the dark
    port, build ``_propagated_state(cfg)``, evaluate each angle's ``A_w`` once,
    warn where t0, or else the least min(1, |A_w|) t0, is below what the fits
    resolve, then fit.  Returns the line, the propagated state, the
    ``propagate_summary.csv`` columns (a row per angle) and ``{arm: fitted
    centre}`` for each of ``arms`` ("V", and "H" if named).  The angles, then
    the arms, are fitted by ``ordered_map``, a chunk of fits per process.  The
    amplification is the advance over the reference (V) arm in units of
    ``line.t0``; ``advantage_over_bare`` is the advance over that of a bare
    line passing the same measured throughput, ``t_atom(throughput)``."""
    for theta_deg in thetas_deg:  # each angle's range is checked where it enters
        if abs(theta_deg - (-45.0)) < _DARK_PORT_GUARD_DEG:
            raise ParameterError(
                f"analyzer angle {float(theta_deg)!r} deg is within "
                f"{_DARK_PORT_GUARD_DEG:g} deg of the dark port at -45 deg, where "
                "the weak value diverges; move the angle away from -45 deg"
            )
    line, t_tilde, propagated = _propagated_state(cfg)
    thetas = [np.deg2rad(theta_deg) for theta_deg in thetas_deg]
    a_w = np.array([weak_value(theta) for theta in thetas])
    floor_s = _MIN_RESOLVED_T0_SIGMAS * cfg.pulse_sigma_s()
    advance, theta_deg = line.t0, None
    if line.t0 >= floor_s:  # the least predicted row advance, |A_w| t0
        advance, theta_deg = min(zip(np.abs(a_w) * line.t0, thetas_deg))
    if advance < floor_s:
        name = "line advance t0" if theta_deg is None else (
            f"predicted advance |A_w| t0 at analyzer angle {float(theta_deg)!r} deg")
        warnings.warn(
            f"{name} = {advance:.3e} s is below {_MIN_RESOLVED_T0_SIGMAS:g} pulse widths "
            f"({floor_s:.3e} s), where the fitted advances can round by more than 1e-3 of "
            "themselves",
            ApproximationWarning,
        )
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
    advance = centers["V"] - selected_centers
    amplification = advance / line.t0
    bare_advance = np.array([t_atom(t, line.gamma_prime) for t in throughputs])
    with np.errstate(divide="ignore", invalid="ignore"):  # a throughput of 1: inf or nan
        advantage = advance / bare_advance
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
        "bare_advance_same_loss_s": bare_advance,
        "advantage_over_bare": advantage,
    }
    return line, propagated, table, centers


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


def cmd_propagate(cfg: RunConfig, args) -> None:
    if args.theta is not None:
        check_angle_deg("--theta", args.theta)
    thetas = [args.theta] if args.theta is not None else list(cfg.theta_list_deg)
    trace_names = _trace_names(thetas)  # before any work, the dark-port refusal included
    # every fit, the two arms' included, runs before any file is written, so a
    # failed one leaves no partial output; the post-selected envelopes are
    # rebuilt for writing rather than held, one grid-sized array per angle
    line, propagated, table, centers = _angle_table(cfg, thetas, ("V", "H"))

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


def cmd_sweep_theta(cfg: RunConfig, args) -> None:
    if args.count < 2:
        raise ParameterError("--count: must be at least 2")
    if args.count > _MAX_SWEEP_COUNT:
        raise ParameterError(f"--count: must be at most {_MAX_SWEEP_COUNT}")
    check_angle_deg("--start", args.start)
    check_angle_deg("--stop", args.stop)
    thetas = [float(t) for t in np.linspace(args.start, args.stop, args.count)]
    _, _, table, _ = _angle_table(cfg, thetas)
    out = _out_dir(cfg, args)
    write_csv(out / "sweep_theta.csv", {key: table[key] for key in _SWEEP_COLUMNS})
    print(f"wrote {out / 'sweep_theta.csv'} ({args.count} angles)")


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


def cmd_loss_scaling(cfg: RunConfig, args) -> None:
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


def cmd_crossover(cfg: RunConfig, args) -> None:
    summary = _crossover_summary(cfg.reduced_line().gamma_prime)
    out = _out_dir(cfg, args)
    write_kv(out / "crossover.csv", summary)
    print(f"crossover transmission: {summary['crossover_transmission']:.6f}")
    print(f"wrote {out / 'crossover.csv'}")


# each subcommand: name, function, help and its own (flag, type, default, help) options
_COMMANDS = (
    ("spectrum", cmd_spectrum, "line transfer function on a detuning grid", ()),
    ("propagate", cmd_propagate, "propagate and post-select a pulse", [
        ("--theta", float, None, "single analyzer angle in degrees (overrides the config list)")]),
    ("sweep-theta", cmd_sweep_theta, "amplification versus analyzer angle", [
        ("--start", float, -85.0, "first angle (deg)"), ("--stop", float, -5.0, "last angle (deg)"),
        ("--count", int, 40, "number of angles")]),
    ("loss-scaling", cmd_loss_scaling, "advance-at-fixed-loss comparison", ()),
    ("crossover", cmd_crossover, "break-even throughput of the two schemes", ()),
)


class _Parser(argparse.ArgumentParser):
    """Usage errors reach ``main`` as a ParameterError: one ``error:`` line, exit 2."""

    def error(self, message):
        raise ParameterError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fastlight",
        description=(
            "Pulse advancement through an absorbing line and its "
            "amplification by polarization post-selection"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, text, options in _COMMANDS:
        p = sub.add_parser(name, help=text)  # a _Parser too
        p.add_argument("--config", help="JSON config file (default: built-in quick-start)")
        p.add_argument("--out", help="output directory (overrides the config)")
        for flag, kind, default, flag_text in options:
            p.add_argument(flag, type=kind, default=default, help=flag_text)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # an empty path would be the working directory
        for flag, path in (("--config", args.config), ("--out", args.out)):
            if path == "":
                raise ParameterError(f"{flag}: must be a non-empty path")
        if args.out is not None:
            check_path("--out", args.out)
        args.func(load_config(args.config) if args.config is not None else default_config(), args)
    except (ParameterError, ApproximationWarning, OSError) as exc:
        # OSError: an unusable --out or --config; ApproximationWarning: under -W error
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
