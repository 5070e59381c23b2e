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
across reruns of the same configuration: fixed column orders, fixed 12-digit
scientific formatting, no timestamps.

Exit codes: 0 success, 2 invalid parameters or config (a ParameterError, or
an unusable --out or --config path), 3 a NumericalError.  Every result is
computed before the output directory is created, so on a bad input or a
numerical failure nothing is written.
"""

from __future__ import annotations

import argparse
import os
import pickle
import signal
import sys
from pathlib import Path

import numpy as np

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
    refractive_index,
    transfer_exponent,
    transmission,
)
from .config import RunConfig, default_config, load_config
from .errors import NumericalError, ParameterError, check_angle_deg
from .pulse_engine import (
    NUMBER_FORMAT,
    default_grid,
    make_gaussian,
    prepare_input,
    propagate_ideal,
    propagate_lorentzian,
    write_csv,
    write_envelope_csv,
)
from .weak_value import post_select, total_transmission, weak_value

_SPECTRUM_HALF_SPAN = 10.0  # spectrum grid extends +- this many gamma'
_KK_HALF_SPAN = 40.0
_KK_POINTS = 1 << 14
_DARK_PORT_GUARD_DEG = 0.01
_MAX_SWEEP_COUNT = 1 << 20
# Fewest analyzer angles worth a process of their own.  Two processes
# against one, timed in one warm process at 4096 samples on a 2-CPU machine
# (medians of 7 to 21 alternated pairs per session): at 96 angles (48 each)
# the split was slower in every session, at 128 (64 each) in 2 of 5, and
# from 160 (80 each) it took 0.66-0.73 of the time in every session.  Below
# that, the fork, the copy-on-write faults that follow it in both processes
# and the pickled rows cost about what the angles save.  propagate's angle
# lists and short sweeps stay in one process.
_MIN_ANGLES_PER_PROCESS = 80
_FORK_WARNS_WITH_THREADS = sys.version_info >= (3, 12)
# sweep_theta.csv and loss_scaling_summary.csv: subsets, in order, of the
# propagate_summary.csv and crossover.csv quantities
_SWEEP_COLUMNS = (
    "theta_deg", "weak_value", "amplification_fitted", "relative_deviation", "throughput_measured"
)
_LOSS_SUMMARY_KEYS = (
    "crossover_transmission", "theta_opt_deg_at_crossover", "gamma_prime_rad_per_s"
)


def _write_rows(path: Path, rows: list, columns=None) -> None:
    """One line per ``{column: number}`` row, in ``columns`` (default: the first row's keys)."""
    write_csv(path, {key: [row[key] for row in rows] for key in columns or rows[0]})


def _write_kv(path: Path, values: dict) -> None:
    lines = ["quantity,value"] + [
        "%s,%s" % (key, value if isinstance(value, str) else NUMBER_FORMAT % value)
        for key, value in values.items()
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _out_dir(cfg: RunConfig, args) -> Path:
    """Create the output directory; commands call this only once every result
    is computed, so a command that exits 2 or 3 creates nothing."""
    out = Path(args.out) if args.out else Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load(args) -> RunConfig:
    return load_config(args.config) if args.config else default_config()


def cmd_spectrum(args) -> int:
    cfg = _load(args)
    line = cfg.reduced_line()
    gp = line.gamma_prime
    delta = np.linspace(-_SPECTRUM_HALF_SPAN * gp, _SPECTRUM_HALF_SPAN * gp, cfg.spectrum_points)
    phi = transfer_exponent(delta, line)
    kk_grid = np.linspace(-_KK_HALF_SPAN * gp, _KK_HALF_SPAN * gp, _KK_POINTS)
    columns = {
        "delta_prime_rad_per_s": delta,
        "loss_exponent_field": phi.imag,
        "phase_rad": phi.real,
        "group_advance_s": phase_slope(delta, line),
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
        columns["re_n_minus_1"] = refractive_index(chi).real - 1.0
        columns["group_index"] = group_index(delta, spec)
        summary["kk_residual"] = kk_check(spec, kk_grid)
        summary["light_shift_rad_per_s"] = light_shift(spec)
        summary["power_broadening_rad_per_s"] = power_broadening(spec)
        summary["alpha_per_m"] = absorption(spec)
        summary["group_index_line_center"] = float(group_index(0.0, spec))
    else:
        summary["kk_residual"] = kramers_kronig_residual(kk_grid, transfer_exponent(kk_grid, line))
    out = _out_dir(cfg, args)
    write_csv(out / "spectrum.csv", columns)
    _write_kv(out / "spectrum_summary.csv", summary)
    print(f"wrote {out / 'spectrum.csv'} and {out / 'spectrum_summary.csv'}")
    return 0


def _check_analyzer_angles(thetas_deg) -> None:
    """Reject angles outside (-90, 90] deg and at the dark port."""
    for theta_deg in thetas_deg:
        check_angle_deg("analyzer angle", theta_deg)
        if abs(theta_deg - (-45.0)) < _DARK_PORT_GUARD_DEG:
            raise ParameterError(
                f"analyzer angle {theta_deg:g} deg is within "
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
    sigma = cfg.pulse_sigma_s()
    grid = default_grid(sigma, cfg.grid.n_samples, cfg.grid.span_sigmas)
    source = make_gaussian(grid, sigma, 0.0, cfg.pulse.amplitude)
    t_tilde = transmission(line)
    state = prepare_input(source, t_tilde)
    if cfg.propagation == "ideal":
        propagated = propagate_ideal(state, line)
    else:
        propagated = propagate_lorentzian(state, line)
    return line, t_tilde, propagated


def _trace_names(thetas_deg) -> list:
    """One post-selected trace file name per angle, in order; two angles
    that would share a file are refused."""
    names = {}
    for theta_deg in thetas_deg:
        name = f"trace_postselected_theta_{theta_deg:.2f}.csv"
        if name in names:
            raise ParameterError(
                f"analyzer angles {names[name]!r} and {theta_deg!r} deg would both "
                f"write {name}, whose name carries the angle to 0.01 deg"
            )
        names[name] = theta_deg
    return list(names)


def _angle_rows(propagated, line, t_tilde, center_v, thetas_deg) -> list:
    """One ``propagate_summary.csv`` row per analyzer angle: post-select, fit
    the arrival, and divide its advance over the reference (V) arm, centred
    at ``center_v``, by the line's own advance ``line.t0`` to get the
    amplification."""
    rows = []
    for theta_deg in thetas_deg:
        theta = np.deg2rad(theta_deg)
        a_w = weak_value(theta)
        selected = post_select(propagated, theta)
        fit = fit_gaussian(selected.envelope)
        advance = center_v - fit.center
        amplification = advance / line.t0
        rows.append(
            {
                "theta_deg": theta_deg,
                "weak_value": a_w,
                "center_v_s": center_v,
                "center_selected_s": fit.center,
                "advance_s": advance,
                "amplification_fitted": amplification,
                "relative_deviation": abs(amplification - a_w) / abs(a_w),
                "throughput_measured": selected.throughput,
                "throughput_predicted": total_transmission(t_tilde, theta),
                "fit_residual_rms": fit.residual_rms,
            }
        )
    return rows


def _process_count(n_angles: int) -> int:
    """How many processes fit ``n_angles`` angles: one per usable CPU while
    each gets at least ``_MIN_ANGLES_PER_PROCESS``; one where ``os.fork`` or
    the CPU affinity is missing, or where forking would warn because the
    process has other threads (Python >= 3.12)."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    if _FORK_WARNS_WITH_THREADS and _has_other_threads():
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_angles // _MIN_ANGLES_PER_PROCESS))


def _has_other_threads() -> bool:
    """Whether the OS counts more than one thread in this process, as Python
    >= 3.12 does before it warns on a fork; without /proc, assume so."""
    try:
        return len(os.listdir("/proc/self/task")) > 1
    except OSError:
        return True


def _fork_chunk(fit_chunk, chunk) -> tuple:
    """Fork a child that fits ``chunk`` and writes, as one pickle, its rows
    or the exception that stopped it; return its pid and the read end of
    its pipe."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # out of processes or memory: exit 2 like any OSError
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:  # the child: never returns into the caller's stack
        status = 1
        try:
            os.close(read_fd)
            try:
                result = fit_chunk(chunk)
            except Exception as exc:  # re-raised by the parent, in angle order
                result = exc
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(result))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def _child_result(pid: int, read_fd: int, chunk):
    """Read a forked child's pickle and reap the child; a child that ended
    without a whole result reads as a NumericalError naming its angles."""
    with open(read_fd, "rb", closefd=False) as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    try:
        return pickle.loads(data)
    except (EOFError, pickle.UnpicklingError):  # the child died before replying
        code = os.waitstatus_to_exitcode(status)
        how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
        return NumericalError(
            f"the process fitting analyzer angles {chunk[0]:g} to {chunk[-1]:g} deg "
            f"ended without a result ({how})"
        )


def _selected_rows(propagated, line, t_tilde, thetas_deg) -> list:
    """``_angle_rows`` for every angle, after one fit of the V arm.

    Long angle lists are split into contiguous chunks, one per process (see
    ``_process_count``).  This process fits the first chunk while forked
    children fit the others; the rows are joined in angle order, so they
    are the rows one process would build.  If chunks fail, the error of the
    first failing chunk, the one nearest the first angle, is raised.  Every
    child is reaped before this returns or raises.
    """
    center_v = fit_gaussian(propagated.v).center

    def fit_chunk(chunk):
        return _angle_rows(propagated, line, t_tilde, center_v, chunk)

    n = _process_count(len(thetas_deg))
    bounds = [len(thetas_deg) * i // n for i in range(n + 1)]
    chunks = [thetas_deg[a:b] for a, b in zip(bounds, bounds[1:])]
    children = []  # (pid, read end of its pipe), in chunk order
    results = []  # rows or an exception, one per reaped child
    try:
        for chunk in chunks[1:]:
            children.append(_fork_chunk(fit_chunk, chunk))
        rows = fit_chunk(chunks[0])
        for (pid, read_fd), chunk in zip(children, chunks[1:]):
            results.append(_child_result(pid, read_fd, chunk))
    finally:
        for pid, _ in children[len(results):]:  # a fork or the first chunk failed: end the rest
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for _, read_fd in children:
            os.close(read_fd)
    for result in results:
        if isinstance(result, Exception):
            raise result
        rows += result
    return rows


def cmd_propagate(args) -> int:
    cfg = _load(args)
    thetas = [args.theta] if args.theta is not None else list(cfg.theta_list_deg)
    _check_analyzer_angles(thetas)
    trace_names = _trace_names(thetas)
    line, t_tilde, propagated = _propagated_state(cfg)
    # every fit runs before any file is written, so a failed one leaves no
    # partial output; the post-selected envelopes are rebuilt for writing
    # rather than held, one grid-sized array per angle
    center_h = fit_gaussian(propagated.h).center
    rows = _selected_rows(propagated, line, t_tilde, thetas)

    out = _out_dir(cfg, args)
    write_envelope_csv(propagated.h, out / "trace_h.csv")
    write_envelope_csv(propagated.v, out / "trace_v.csv")
    for theta_deg, name in zip(thetas, trace_names):
        write_envelope_csv(post_select(propagated, np.deg2rad(theta_deg)).envelope, out / name)
    _write_rows(out / "propagate_summary.csv", rows)
    written = ["trace_h.csv", "trace_v.csv", *trace_names, "propagate_summary.csv"]
    print(
        f"H advance {rows[0]['center_v_s'] - center_h:.6e} s over t0 {line.t0:.6e} s; "
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
    rows = _selected_rows(propagated, line, t_tilde, thetas)
    out = _out_dir(cfg, args)
    _write_rows(out / "sweep_theta.csv", rows, _SWEEP_COLUMNS)
    print(f"wrote {out / 'sweep_theta.csv'} ({args.count} angles)")
    return 0


def _crossover_summary(gp: float) -> dict:
    """The break-even throughput, the best angle and both advances there."""
    tstar = crossover(gp)
    return {
        "crossover_transmission": float(tstar),
        "theta_opt_deg_at_crossover": float(np.rad2deg(tstar.theta)),
        "advance_at_crossover_s": tstar.advance,
        "advance_norm_at_crossover": 2 * gp * tstar.advance,
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
    _write_kv(out / "loss_scaling_summary.csv", {key: summary[key] for key in _LOSS_SUMMARY_KEYS})
    print(f"wrote {out / 'loss_scaling.csv'} and {out / 'loss_scaling_summary.csv'}")
    return 0


def cmd_crossover(args) -> int:
    cfg = _load(args)
    summary = _crossover_summary(cfg.reduced_line().gamma_prime)
    out = _out_dir(cfg, args)
    _write_kv(out / "crossover.csv", summary)
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
    except (ParameterError, OSError) as exc:  # OSError: an unusable --out or --config
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
