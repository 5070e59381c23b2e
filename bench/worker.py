"""Child process of the benchmark: set up, then time passes.

    worker.py PLAN WARM_PLAN RESULT SECONDS TRACE

Set-up is importing ``fastlight.cli`` and making one warm-up call (the
workload at smoke size); the parent measures it from its own spawn time to
the wall-clock time this process notes when set-up ends.  Then the process
repeats pass -> output check for about SECONDS, starting a pass only when
it is expected to end in time.  With TRACE 1, passes alternate between
untraced and traced, so both see the same machine drift.

Set-up and every pass run under a Sampler, which records how fast the
machine ran meanwhile.  The process writes one JSON object to RESULT.
Only small standard-library modules are imported before set-up ends.
"""

import json
import math
import signal
import sys
import time

CALIB_REF_S = 1e-4  # probe time the drift-corrected figures are scaled to
SAMPLE_INTERVAL_S = 0.005
PROBE_ITERATIONS = 100


def _objective(x: float, t: float) -> float:
    s = math.sin(x + 0.7)
    return -math.inf if s <= 0 else math.cos(x) / s * math.log(2 * s * s / t + 1.0)


def probe() -> float:
    """Seconds taken by a fixed piece of interpreter work that resembles the
    program's own Python code: function and math calls, a dict, float
    formatting and a join.  No fastlight code runs in it."""
    start = time.perf_counter()
    table, parts = {}, []
    for i in range(PROBE_ITERATIONS):
        value = _objective(i * 0.01, 0.3)
        table[i & 15] = value
        if i % 5 == 0:
            parts.append(f"{value:.12e}")
    ",".join(parts)
    return time.perf_counter() - start


class Sampler:
    """Samples how fast the machine runs while the measured code runs.

    On a shared machine a core can switch between fast and slow states
    many times a second (for instance while another tenant loads its
    sibling hyperthread), so a probe run before a pass does not describe a
    pass that lasts seconds.  Instead, every SAMPLE_INTERVAL_S of wall time
    a SIGALRM handler times ``probe``.  ``corrected`` takes
    the handler's own time out of a raw duration and scales the rest by
    CALIB_REF_S over the mean sample: raw x CALIB_REF_S / probe time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _on_alarm(self, signum, frame) -> None:
        elapsed = probe()
        self.samples.append(elapsed)
        self.spent += elapsed

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def record(self, raw_s: float) -> dict:
        """Raw seconds, handler seconds and probe time of one measurement."""
        samples = self.samples or [probe()]  # shorter than one interval: probe after it
        return {"raw_s": raw_s, "sampler_s": self.spent,
                "probe_s": sum(samples) / len(samples), "samples": len(self.samples)}


def corrected(record: dict) -> float:
    """Drift-corrected seconds of a measurement recorded by ``Sampler.record``."""
    return (record["raw_s"] - record["sampler_s"]) * CALIB_REF_S / record["probe_s"]


def call_cli(main, argv) -> tuple[int, str]:
    """Exit code of one ``fastlight`` call, with a message when it is not 0."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code if isinstance(exc.code, int) else 2
        return code, f"SystemExit({exc.code!r})"
    except Exception as exc:  # a traceback for a CLI user; the run goes on
        import traceback

        return 1, "".join(traceback.format_exception_only(exc)).strip()
    return code, "" if code == 0 else f"exit code {code}"


def run_pass(main, commands, tracer=None) -> tuple[float, list]:
    """Run one pass of CLI calls; return its wall seconds and the failures."""
    import contextlib
    import io

    def spanned(name):
        return tracer.span(name) if tracer is not None else contextlib.nullcontext()

    failures = []
    first = len(tracer.spans) if tracer is not None else 0
    with contextlib.redirect_stdout(io.StringIO()):  # the CLI prints a status line per call
        start = time.perf_counter()
        with spanned("bench.pass"):
            for argv in commands:
                with spanned("cli.main"):
                    code, message = call_cli(main, argv)
                if code != 0:
                    failures.append(f"{argv[0]}: {message}")
        elapsed = time.perf_counter() - start
    if tracer is not None:  # a traced pass lasts exactly as long as its root span
        elapsed = tracer.spans[first][2] - tracer.spans[first][1]
    return elapsed, failures


def file_facts(directory) -> dict:
    """sha256, size and data-row count of every file a pass wrote."""
    import hashlib
    from pathlib import Path

    facts = {}
    for path in sorted(Path(directory).iterdir()):
        data = path.read_bytes()
        facts[path.name] = {
            "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
            "rows": max(data.count(b"\n") - 1, 0),
        }
    return facts


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _dump(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _import_and_warm(warm_plan_path) -> tuple:
    """Import the CLI and make the warm-up call, all under one Sampler.

    Returns the module, the import's record, the warm-up failures, and the
    set-up record, whose ``ready`` is the wall-clock time set-up ended.
    """
    with Sampler() as sampler:
        start = time.perf_counter()
        import fastlight.cli as cli

        imported = sampler.record(time.perf_counter() - start)
        _, failures = run_pass(cli.main, load_json(warm_plan_path)["commands"])
        ready = time.time()
    return cli, imported, failures, {**sampler.record(0.0), "ready": ready}


def main(plan_path, warm_plan_path, result_path, seconds, trace) -> None:
    cli, imported, warm_failures, setup = _import_and_warm(warm_plan_path)

    import gc
    import os
    import platform
    import resource
    import shutil

    import numpy
    import scipy

    from spans import Tracer
    from workloads import check

    plan = load_json(plan_path)
    tracer = Tracer() if trace else None
    passes, reference = [], None
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        shutil.rmtree(plan["out"], ignore_errors=True)
        gc.collect()
        if traced:
            tracer.pass_id = len(passes)
            tracer.install(cli)
        try:
            with Sampler() as sampler:
                raw_s, problems = run_pass(cli.main, plan["commands"], tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        facts = file_facts(plan["out"]) if os.path.isdir(plan["out"]) else {}
        found, info = check(plan, facts)
        problems += found
        digests = {name: f["sha256"] for name, f in facts.items()}
        if reference is None:
            reference = digests
        elif digests != reference:
            problems.append("output bytes differ from the first pass")
        passes.append({
            **sampler.record(raw_s), "traced": traced, "problems": problems, "info": info,
            "bytes_written": sum(f["bytes"] for f in facts.values()), "files_written": len(facts),
        })
        elapsed = time.perf_counter() - start
        if len(passes) >= (2 if trace else 1) and elapsed * (1 + 1 / len(passes)) > seconds:
            break
    shutil.rmtree(plan["out"], ignore_errors=True)
    _dump({
        "setup": setup, "import": imported, "warm_failures": warm_failures,
        "fastlight": cli.__file__, "passes": passes, "files": reference,
        "spans": tracer.spans if tracer else [],
        "counts": {str(k): v for k, v in tracer.counts.items()} if tracer else {},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "env": {
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
        },
    }, result_path)


if __name__ == "__main__":
    main(*sys.argv[1:4], float(sys.argv[4]), sys.argv[5] == "1")
