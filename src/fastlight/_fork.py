"""A list mapped over forked processes and joined in order, by a hand-written
fork: Python 3.11's ``multiprocessing`` leaves two pipes open if a fork fails.

The CLI maps two lists through it: the fits of ``propagate`` and
``sweep-theta`` (the analyzer angles, then the reference arms), and the trace
files that ``propagate`` writes."""

import os
import pickle
import signal
import sys

from .errors import NumericalError

_FORK_WARNS_WITH_THREADS = sys.version_info >= (3, 12)


def _process_count(n_items: int, min_per_process: int) -> int:
    """Processes for ``n_items``: one per usable CPU while each gets ``min_per_process``;
    one without ``os.fork`` or CPU affinity, or where a fork would warn because the
    OS counts other threads in this process (Python >= 3.12)."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    if _FORK_WARNS_WITH_THREADS:
        try:
            if len(os.listdir("/proc/self/task")) > 1:
                return 1
        except OSError:  # without /proc, assume other threads
            return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_items // min_per_process))


def ordered_map(fn, items: list, min_per_process: int, describe) -> list:
    """``[fn(x) for x in items]``, a contiguous chunk of items per process.

    This process maps the first chunk while forked children map the others;
    the results are joined in item order.  Of several items that raise, the
    first one's exception is raised; a child that ends without a result
    reads as a NumericalError naming ``describe(chunk)``.  Every child is
    reaped before this returns or raises, and killed first if a fork or the
    first chunk failed.

    On Python >= 3.12 the split needs a process without other OS threads,
    which NumPy's BLAS pool starts on import: on a 2-CPU Linux machine a
    process runs 1 thread, and 2 after ``import numpy`` and after every fit
    (MINPACK's extension starts none), so every call stays in one process
    unless ``OPENBLAS_NUM_THREADS=1`` keeps the pool at 1.
    """
    n = _process_count(len(items), min_per_process)
    chunks = [items[len(items) * i // n : len(items) * (i + 1) // n] for i in range(n)]
    children = []  # (pid, read end of its pipe), in chunk order
    results = []  # a list or an exception, one per reaped child
    try:
        for chunk in chunks[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # out of processes or memory: the caller exits 2
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:  # the child: never returns into the caller's stack
                try:
                    os.close(read_fd)
                    try:
                        result = [fn(x) for x in chunk]
                    except Exception as exc:  # re-raised by the parent, in chunk order
                        result = exc
                    with os.fdopen(write_fd, "wb") as pipe:
                        pipe.write(pickle.dumps(result))
                    os._exit(0)
                finally:  # the result was not written
                    os._exit(1)
            os.close(write_fd)
            children.append((pid, read_fd))
        joined = [fn(x) for x in chunks[0]]
        for (pid, read_fd), chunk in zip(children, chunks[1:]):
            with open(read_fd, "rb", closefd=False) as pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            try:
                results.append(pickle.loads(data))
            except (EOFError, pickle.UnpicklingError):  # the child died before replying
                code = os.waitstatus_to_exitcode(status)
                how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                message = f"the process {describe(chunk)} ended without a result ({how})"
                results.append(NumericalError(message))
    finally:
        for pid, _ in children[len(results):]:  # a fork or the first chunk failed: end the rest
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for _, read_fd in children:
            os.close(read_fd)
    for result in results:
        if isinstance(result, Exception):
            raise result
        joined += result
    return joined
