"""Outside-in tracing for the benchmark: spans around calls into each layer.

``Tracer.install`` replaces the public functions that ``fastlight.cli``
imports, and the ``fastlight.analysis`` globals that ``crossover``,
``scaling_curve`` and ``fit_gaussian`` call, with wrappers that record a
span (name, start, end, parent, pass id) in memory.  Span names are
``<module>.<function>``, e.g. ``analysis.fit_gaussian``.  Nothing inside
the program changes; ``uninstall`` puts the original functions back.

The rest of the module is pure bookkeeping over recorded spans (self
times, per-pass sums) and the parser for ``python -X importtime`` output.
It uses the standard library only.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import time

# Globals of fastlight.analysis called from inside its own functions.
ANALYSIS_INNER = ("t_wva", "t_atom", "centroid")

NAME, START, END, PARENT, PASS = range(5)


def _size(x) -> int:
    return int(getattr(x, "size", 1))


# Counters recorded after a call returns, outside its span:
# span name -> function(count, args) that adds to the pass's counters.
COUNTERS = {
    "atomic_response.chi_lorentzian": lambda count, a: count("atomic_response.points", _size(a[0])),
    "atomic_response.group_index": lambda count, a: count("atomic_response.points", _size(a[0])),
    "atomic_response.kk_check": lambda count, a: count("atomic_response.points", _size(a[1])),
    # one forward and one inverse FFT of the H arm
    "pulse_engine.propagate_lorentzian": lambda count, a: count(
        "pulse_engine.fft_samples", 2 * a[0].h.samples.size),
    "pulse_engine.write_envelope_csv": lambda count, a: (
        count("pulse_engine.write_envelope_csv_rows", a[0].samples.size),
        count("pulse_engine.write_envelope_csv_bytes", os.path.getsize(a[1]))),
    "weak_value.post_select": lambda count, a: count(
        "weak_value.samples_projected", a[0].h.samples.size),
    "analysis.fit_gaussian": lambda count, a: count("analysis.fit_gaussian_samples", a[0].samples.size),
}


class Tracer:
    """Spans and per-pass counters, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, pass id]
        self.counts: dict = {}  # pass id -> {counter: value}
        self.pass_id = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.pass_id])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def count(self, key: str, n) -> None:
        counts = self.counts.setdefault(self.pass_id, {})
        counts[key] = counts.get(key, 0) + n

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                counter(self.count, args)
            return result

        return traced

    def install(self, cli) -> None:
        """Wrap the layer functions reachable from the ``fastlight.cli`` module."""
        import fastlight.analysis as analysis

        wrapped = {}  # one wrapper per function, shared by every namespace

        def patch(namespace, attr):
            fn = getattr(namespace, attr)
            if fn not in wrapped:
                wrapped[fn] = self.wrap(fn.__module__.removeprefix("fastlight.") + "." + fn.__name__, fn)
            self._patches.append((namespace, attr, fn))
            setattr(namespace, attr, wrapped[fn])

        for attr, obj in list(vars(cli).items()):
            if (inspect.isfunction(obj) and obj.__module__.startswith("fastlight.")
                    and obj.__module__ != cli.__name__):
                patch(cli, attr)
        for attr in ANALYSIS_INNER:
            patch(analysis, attr)

    def uninstall(self) -> None:
        for namespace, attr, fn in reversed(self._patches):
            setattr(namespace, attr, fn)
        self._patches.clear()


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    result = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, reach = 0.0, start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        result.append((end - start) - covered)
    return result


def pass_summary(spans: list) -> dict[int, dict[str, dict]]:
    """Per pass id, per span name: inclusive seconds, self seconds, calls."""
    out: dict = {}
    for span, own in zip(spans, self_times(spans)):
        entry = out.setdefault(span[PASS], {}).setdefault(
            span[NAME], {"incl": 0.0, "self": 0.0, "calls": 0})
        entry["incl"] += span[END] - span[START]
        entry["self"] += own
        entry["calls"] += 1
    return out


def import_times(text: str, package: str = "fastlight") -> dict[str, float]:
    """Own import seconds of each ``package`` module from ``-X importtime``.

    A module's own time is its cumulative time minus that of the package
    modules imported beneath it, so third-party imports (numpy, scipy)
    count towards the package module that pulled them in first.
    """
    entries = []  # (depth, name, cumulative seconds), in the order printed
    for line in text.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cumulative) * 1e-6))
    # Children are printed before their parent; walk backwards to find each
    # entry's nearest enclosing package module.
    own: dict[str, float] = {}
    stack: list[tuple[int, str | None]] = []  # (depth, nearest package module)
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        enclosing = stack[-1][1] if stack else None
        mine = name == package or name.startswith(package + ".")
        if mine:
            own[name] = own.get(name, 0.0) + cumulative
            if enclosing is not None:
                own[enclosing] -= cumulative
        stack.append((depth, name if mine else enclosing))
    return own
