"""Host-speed calibration for the benchmark's step times.

On a shared machine the same step can take twice as long from one
second to the next because of other tenants, not because of the code.
The benchmark therefore times this fixed kernel — plain Python
dict/list work plus small NumPy calls, the same mix as the simulator's
hot paths, and nothing from ``src/`` — at least every
:data:`INTERVAL_NS` between steps, and scales each step's host time by
``REFERENCE_NS / kernel time``.  A scaled time reads as "host time on a
machine where this kernel takes :data:`REFERENCE_NS`"; a change to the
library cannot move the kernel, so it cannot hide in the scaling.

A workload whose steps wait on other processes (the multiprocessing
fabric, bound by pipe round trips to its workers) is not tracked by a
compute kernel: round-trip latency depends on when the host schedules
the other process.  For such a workload the calibration also times
:data:`ROUND_TRIPS` pipe round trips to a :class:`PipeEcho` child that
the benchmark starts and stops itself, and scales by
``(REFERENCE_NS + ROUND_TRIP_REFERENCE_NS) / (kernel + round trips)``.
"""

from __future__ import annotations

import multiprocessing
import time

import numpy as np

__all__ = ["INTERVAL_NS", "REFERENCE_NS", "ROUND_TRIP_REFERENCE_NS",
           "ROUND_TRIPS", "PipeEcho", "kernel_ns", "scale"]

#: Kernel time that defines the reference host speed [ns].
REFERENCE_NS = 500_000
#: Time of :data:`ROUND_TRIPS` pipe round trips on the reference host [ns].
ROUND_TRIP_REFERENCE_NS = 1_500_000
#: Pipe round trips per round-trip timing.
ROUND_TRIPS = 48
#: Minimum host time between two calibrations [ns].
INTERVAL_NS = 100_000_000

_ARRAY = np.arange(64, dtype=float)


def _kernel() -> int:
    table: dict[int, tuple[int, float]] = {}
    values: list[float] = []
    total = 0
    for i in range(600):
        table[i & 127] = (i, float(i))
        values.append(i * 0.5)
        total += len(table)
        np.minimum(_ARRAY, 3.0)
    return total


def _best_of_two(fn) -> int:
    best = None
    for _ in range(2):
        start = time.perf_counter_ns()
        fn()
        elapsed = time.perf_counter_ns() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def kernel_ns() -> int:
    """Best of two timings of the calibration kernel [ns]."""
    return _best_of_two(_kernel)


def _echo(conn) -> None:
    while (message := conn.recv()) is not None:
        conn.send(message)


class PipeEcho:
    """A forked child that echoes what it receives over a pipe.

    Use it as a context manager: leaving the block stops the child and
    waits until it has ended.
    """

    def __init__(self) -> None:
        ctx = multiprocessing.get_context("fork")
        self._conn, child = ctx.Pipe()
        self._process = ctx.Process(target=_echo, args=(child,),
                                    name="perfbench-echo", daemon=True)
        self._process.start()
        child.close()

    def _round_trips(self) -> None:
        conn = self._conn
        for i in range(ROUND_TRIPS):
            conn.send(i)
            conn.recv()

    def round_trips_ns(self) -> int:
        """Best of two timings of :data:`ROUND_TRIPS` round trips [ns]."""
        return _best_of_two(self._round_trips)

    def close(self) -> None:
        if self._process.is_alive():
            try:
                self._conn.send(None)
            except OSError:
                pass
            self._process.join(5.0)
        if self._process.is_alive():
            self._process.terminate()
        self._process.join()
        self._conn.close()

    def __enter__(self) -> PipeEcho:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def scale(echo: PipeEcho | None = None) -> float:
    """Reference over measured calibration time, now."""
    if echo is None:
        return REFERENCE_NS / kernel_ns()
    return (REFERENCE_NS + ROUND_TRIP_REFERENCE_NS) \
        / (kernel_ns() + echo.round_trips_ns())
