#!/usr/bin/env python3
"""fastlight benchmark: seeded CLI workloads, timed end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1            # every workload

Workloads (see BENCHMARK.json for why each was chosen):

    sweep   sweep-theta, 1000 angles on the quick-start line     [angles]
    budget  loss-scaling over 200 transmissions, then crossover  [transmissions]
    traces  spectrum then propagate, physical medium, 2^16 grid  [CSV rows written]

Each run spawns PROCESSES fresh worker processes one after another.  Each
imports ``fastlight.cli`` and makes one warm-up call (set-up time), then
repeats pass -> output check for its share of ``--seconds``.  Passes pool
over the processes, so no single process's memory layout or hash seed
decides the result.  A pass calls ``fastlight.cli.main(argv)`` in-process
on inputs generated from ``--seed``.  Every time is drift-corrected (see
worker.Sampler): raw seconds, less the sampler's own time, x CALIB_REF_S /
the mean time of a fixed-work probe sampled throughout the measurement.
Raw seconds and probe times are kept in the result file.

Tests of the benchmark itself: python3 -m pytest bench -q

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics.  The last line
of output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Everything else, spans included, goes to bench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
RESULTS = BENCH / "results"

sys.path.insert(0, str(BENCH))
from spans import import_times, pass_summary  # noqa: E402
from worker import CALIB_REF_S, SAMPLE_INTERVAL_S, corrected, load_json  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

PROCESSES = {"full": 5, "smoke": 1}  # fresh worker processes per run
RUN_LIMIT_S = 170.0  # every child is stopped by then
TAIL_BEYOND = 10  # the tail percentile leaves at least this many passes above it
THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def scale(seconds: float, record: dict) -> float:
    """Drift-correct part of a measurement the way its whole is corrected."""
    return seconds * corrected(record) / record["raw_s"]


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND values above it, never
    below the median; returns (value, percentile)."""
    ordered = sorted(values)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, (n - 1) // 2)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n


def _child(args: list[str], deadline: float, importtime: bool = False):
    env = dict(os.environ, **THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    command = [sys.executable, *(["-X", "importtime"] if importtime else []),
               str(BENCH / "worker.py"), *args]
    spawned = time.time()
    proc = subprocess.run(command, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark child failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return spawned, proc


def _source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def _check_origin(path: str) -> None:
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported fastlight from {path}, not from {SRC}")


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """Run one workload in PROCESSES fresh workers, one after another."""
    deadline = time.monotonic() + RUN_LIMIT_S
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK))
    try:
        plan = generate(workload, seed, size, work / "pass")
        warm = generate(workload, seed, "smoke", work / "warm")
        for name, obj in (("plan.json", plan), ("warm.json", warm)):
            (work / name).write_text(json.dumps(obj), encoding="utf-8")
        share = seconds / PROCESSES[size]
        workers = []
        for i in range(PROCESSES[size]):
            out = work / f"worker{i}.json"
            spawned, proc = _child([str(work / "plan.json"), str(work / "warm.json"), str(out),
                                    repr(share), str(int(trace))], deadline, importtime=trace)
            result = load_json(out)
            _check_origin(result["fastlight"])
            result["setup"]["raw_s"] = result["setup"]["ready"] - spawned
            if trace:
                result["import_times"] = import_times(proc.stderr)
            workers.append(result)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"plan": plan, "workers": workers}


def _passes(run: dict, traced: bool | None = None) -> list[dict]:
    return [p for w in run["workers"] for p in w["passes"] if traced is None or p["traced"] == traced]


def end_to_end(run: dict) -> tuple[dict, dict]:
    """The end-to-end metrics of an untraced run, and their sample notes."""
    workers = run["workers"]
    passes = _passes(run)
    good = [p for p in passes if not p["problems"]] or passes
    times = [corrected(p) for p in good]
    setups = [corrected(w["setup"]) for w in workers]
    pass_s = statistics.median(times)
    tail_s, percentile = tail(times)
    items = good[0]["info"]["items"]
    failed = sum(1 for p in passes if p["problems"])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "pass_s": (pass_s, "s"),
        "pass_s_tail": (tail_s, "s"),
        "items_per_s": (items / pass_s, "1/s"),
        "peak_rss_mb": (statistics.median(w["peak_rss_mb"] for w in workers), "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes (raw "
                   f"{statistics.median(w['setup']['raw_s'] for w in workers):.4f} s)",
        "pass_s": f"median of {len(times)} passes in {len(workers)} processes (raw "
                  f"{statistics.median(p['raw_s'] for p in good):.4f} s)",
        "pass_s_tail": f"p{percentile:.0f} of {len(times)} passes",
        "items_per_s": f"{items} {run['plan']['item_unit']} per pass",
        "peak_rss_mb": f"median over {len(workers)} processes",
        "fail_ratio": f"{failed} of {len(passes)} passes failed = {failed / len(passes):g}",
    }
    return metrics, notes


class TracedPass:
    """One traced pass, read through its spans and counters.

    ``t(span)`` is the drift-corrected inclusive seconds spent in a span
    name during the pass (``field="self"`` for self time), ``calls(span)``
    the number of such spans and ``c(counter)`` a counter.
    """

    def __init__(self, record: dict, spans: dict, counts: dict):
        self.record, self.spans, self.counts = record, spans, counts

    def t(self, name: str, field: str = "incl") -> float:
        return scale(self.spans.get(name, {}).get(field, 0.0), self.record)

    def calls(self, name: str) -> int:
        return self.spans.get(name, {}).get("calls", 0)

    def c(self, name: str):
        return self.counts.get(name, 0)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# Per-layer metrics read from each traced pass: name -> (unit, reader).
LAYER_METRICS = {
    "config.load_config_s": ("s", lambda v: v.t("config.load_config")),
    "atomic_response.kk_check_s": ("s", lambda v: v.t("atomic_response.kk_check")),
    "atomic_response.chi_lorentzian_s": ("s", lambda v: v.t("atomic_response.chi_lorentzian")),
    "atomic_response.group_index_s": ("s", lambda v: v.t("atomic_response.group_index")),
    "atomic_response.points": ("count", lambda v: v.c("atomic_response.points")),
    "pulse_engine.propagate_lorentzian_s": ("s", lambda v: v.t("pulse_engine.propagate_lorentzian")),
    "pulse_engine.fft_samples": ("count", lambda v: v.c("pulse_engine.fft_samples")),
    "pulse_engine.synth_s": ("s", lambda v: v.t("pulse_engine.default_grid")
                             + v.t("pulse_engine.make_gaussian") + v.t("pulse_engine.prepare_input")),
    "pulse_engine.write_envelope_csv_s": ("s", lambda v: v.t("pulse_engine.write_envelope_csv")),
    "pulse_engine.write_envelope_csv_rows": ("count", lambda v: v.c("pulse_engine.write_envelope_csv_rows")),
    "pulse_engine.write_envelope_csv_bytes": ("B", lambda v: v.c("pulse_engine.write_envelope_csv_bytes")),
    "pulse_engine.write_envelope_csv_mb_per_s": ("MB/s", lambda v: _ratio(
        v.c("pulse_engine.write_envelope_csv_bytes") / 1e6, v.t("pulse_engine.write_envelope_csv"))),
    "weak_value.post_select_s": ("s", lambda v: v.t("weak_value.post_select")),
    "weak_value.post_select_calls": ("count", lambda v: v.calls("weak_value.post_select")),
    "weak_value.samples_projected": ("count", lambda v: v.c("weak_value.samples_projected")),
    "analysis.fit_gaussian_s": ("s", lambda v: v.t("analysis.fit_gaussian")),
    "analysis.fit_gaussian_calls": ("count", lambda v: v.calls("analysis.fit_gaussian")),
    "analysis.fit_gaussian_samples": ("count", lambda v: v.c("analysis.fit_gaussian_samples")),
    "analysis.centroid_calls": ("count", lambda v: v.calls("analysis.centroid")),
    # fitted rows within the weak-value tolerance over rows fitted (0 if none)
    "analysis.weak_regime_ratio": ("ratio", lambda v: _ratio(
        v.record["info"]["weak_rows"], v.record["info"]["fitted_rows"])),
    "analysis.t_wva_s": ("s", lambda v: v.t("analysis.t_wva")),
    "analysis.t_wva_calls": ("count", lambda v: v.calls("analysis.t_wva")),
    "analysis.crossover_s": ("s", lambda v: v.t("analysis.crossover")),
    # the pass minus the spans of the layers the CLI calls
    "cli.self_s": ("s", lambda v: v.t("bench.pass", "self") + v.t("cli.main", "self")),
    "cli.bytes_written": ("B", lambda v: v.record["bytes_written"]),
    "cli.files_written": ("count", lambda v: v.record["files_written"]),
}


def per_layer(run: dict) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run, and each span's median share of
    a traced pass in self time, largest first."""
    rows: dict[str, list] = {name: [] for name in LAYER_METRICS}
    self_share: dict[str, list] = {}
    for worker in run["workers"]:
        summary = pass_summary(worker["spans"])
        for pass_id, record in enumerate(worker["passes"]):
            if not record["traced"]:
                continue
            view = TracedPass(record, summary.get(pass_id, {}), worker["counts"].get(str(pass_id), {}))
            for name, (_, read) in LAYER_METRICS.items():
                rows[name].append(read(view))
            for name, entry in view.spans.items():
                self_share.setdefault(name, []).append(entry["self"] / record["raw_s"])
    metrics = {name: (statistics.median(values), LAYER_METRICS[name][0])
               for name, values in rows.items()}

    workers = run["workers"]
    for module in ("atomic_response", "analysis"):
        metrics[f"{module}.import_s"] = (statistics.median(
            scale(w["import_times"].get(f"fastlight.{module}", 0.0), w["import"])
            for w in workers), "s")
    metrics["cli.import_s"] = (statistics.median(corrected(w["import"]) for w in workers), "s")

    traced = [corrected(p) for p in _passes(run, traced=True)]
    plain = [corrected(p) for p in _passes(run, traced=False)]
    metrics["bench.trace_overhead"] = (statistics.median(traced) / statistics.median(plain), "ratio")
    metrics["bench.calib_s"] = (statistics.median(p["probe_s"] for p in _passes(run)), "s")
    metrics["bench.raw_pass_s"] = (statistics.median(p["raw_s"] for p in _passes(run, False)), "s")
    ranking = sorted(((statistics.median(v), name) for name, v in self_share.items()), reverse=True)
    return metrics, {name: share for share, name in ranking}


def environment(run: dict) -> dict:
    return {**run["workers"][0]["env"], **_source_identity(), "threads": THREADS}


def report(workload: str, seed: int, trace: bool, run: dict) -> dict:
    """Print one workload's metrics; return its result-line fields."""
    passes = _passes(run)
    if len({json.dumps(w["files"], sort_keys=True) for w in run["workers"]}) > 1:
        passes[-1]["problems"].append("output bytes differ between worker processes")
    failed = sum(1 for p in passes if p["problems"])
    setup_failures = [f for w in run["workers"] for f in w["warm_failures"]]
    plan = run["plan"]
    env = environment(run)
    print(f"{workload}  seed {seed}  size {plan['size']}  trace {int(trace)}  "
          f"{len(passes)} passes  python {env['python']} numpy {env['numpy']} "
          f"scipy {env['scipy']} nproc {env['nproc']} threads 1  "
          f"commit {env['commit'] or 'n/a'} src {env['src_sha256'][:12]}")
    if trace:
        metrics, ranking = per_layer(run)
        notes = {}
    else:
        metrics, notes = end_to_end(run)
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit:6s} {notes.get(name, '')}")
    if trace:
        shares = list(ranking.items())
        print("  self time per traced pass: " + ", ".join(
            f"{name} {share:.1%}" for name, share in shares[:5]))
        top = next((name for name, _ in shares if name not in ("bench.pass", "cli.main")), "none")
        print(f"  dominant layer: {top}")
    else:
        print(f"  {'fail_ratio':42s} {failed / len(passes):14.6g} {'':6s} {notes['fail_ratio']}")
    for p in passes:
        for problem in p["problems"][:3]:
            print(f"  FAILED pass: {problem}")
    for failure in setup_failures:
        print(f"  FAILED set-up: {failure}")
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps({
        "workload": workload, "seed": seed, "trace": trace, "env": env,
        "calib_ref_s": CALIB_REF_S, "sample_interval_s": SAMPLE_INTERVAL_S, "plan": plan,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "self_time_share": ranking if trace else None,
        "workers": run["workers"],
    }), encoding="utf-8")
    return {
        "correct": failed == 0 and not setup_failures,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs and one worker process, for tests")
    args = parser.parse_args(argv)
    if not (SRC / "fastlight" / "cli.py").is_file():
        print(f"error: no fastlight sources at {SRC / 'fastlight'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        run = measure(name, args.seed, args.seconds, bool(args.trace), args.size)
        results[name] = report(name, args.seed, bool(args.trace), run)
    if len(names) == 1:
        line = results[names[0]]
    else:
        line = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
