"""Minimal discrete-event simulation engine.

A binary-heap event loop with deterministic tie-breaking (events
scheduled at the same timestamp fire in scheduling order).  This is
the substrate under the Figure 8 experiment: flow generators schedule
arrivals, queues schedule departures, monitors schedule samples.
"""

from __future__ import annotations

import heapq
import itertools
import weakref
from functools import partial
from typing import Callable, Iterable

__all__ = ["Simulator"]


# Heap callbacks hold their simulator weakly: a strong reference would
# close a sim -> heap -> callback -> sim cycle (DESIGN.md section 6).
def _fire_chunk(sim_ref: "weakref.ref[Simulator]",
                chunk: tuple[Callable[[], None], ...]) -> None:
    for index, callback in enumerate(chunk):
        callback()
        if index:  # the loop counts the event itself once
            sim_ref()._processed += 1


def _tick(sim_ref: "weakref.ref[Simulator]", interval: float,
          callback: Callable[[], None]) -> None:
    callback()
    sim_ref().schedule(interval,
                       partial(_tick, sim_ref, interval, callback))


class Simulator:
    """The event loop.

    Events are plain callables; there is no process abstraction —
    network queues are naturally event-driven (arrival, departure,
    timer) and callbacks keep the hot path allocation-free.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._sequence = itertools.count()
        self._running = False
        self._processed = 0

    @property
    def now(self) -> float:
        """Current simulation time [s]."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of events still scheduled."""
        return len(self._heap)

    @property
    def processed(self) -> int:
        """Number of events executed so far."""
        return self._processed

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past: {delay!r}")
        self.schedule_at(self._now + delay, callback)

    def schedule_at(self, time: float,
                    callback: Callable[[], None]) -> None:
        """Run ``callback`` at absolute simulation time ``time``."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule at {time} before now ({self._now})")
        heapq.heappush(self._heap, (time, next(self._sequence), callback))

    def schedule_batch(self, delay: float,
                       callbacks: Iterable[Callable[[], None]]) -> None:
        """Schedule a chunk of callbacks as one heap event.

        All callbacks fire at the same timestamp, in submission order,
        through a single heap entry — one ``heappush``/``heappop`` per
        chunk instead of per packet.  This is the event-loop half of
        batched admission: a traffic generator emitting a burst hands
        the whole burst to the queue in one event, and the queue's
        batch-capable AQM judges it with one vectorised evaluation.
        ``processed`` still advances once per callback.
        """
        chunk = tuple(callbacks)
        if chunk:
            self.schedule(delay,
                          partial(_fire_chunk, weakref.ref(self), chunk))

    def stop(self) -> None:
        """Stop the loop after the current event returns."""
        self._running = False

    def run_until(self, end_time: float) -> None:
        """Process events up to and including ``end_time``.

        The clock is advanced to ``end_time`` even if the heap drains
        earlier, so periodic samplers see a consistent horizon.
        """
        if end_time < self._now:
            raise ValueError(
                f"end time {end_time} is before now ({self._now})")
        self._running = True
        while self._running and self._heap:
            time, _, callback = self._heap[0]
            if time > end_time:
                break
            heapq.heappop(self._heap)
            self._now = time
            callback()
            self._processed += 1
        self._now = max(self._now, end_time)
        self._running = False

    def run(self) -> None:
        """Process events until the heap is empty or :meth:`stop`."""
        self._running = True
        while self._running and self._heap:
            time, _, callback = heapq.heappop(self._heap)
            self._now = time
            callback()
            self._processed += 1
        self._running = False

    def every(self, interval: float, callback: Callable[[], None],
              *, start_delay: float | None = None) -> None:
        """Install a periodic callback (first firing after one interval
        unless ``start_delay`` is given)."""
        if interval <= 0:
            raise ValueError(f"interval must be positive: {interval!r}")
        self.schedule(interval if start_delay is None else start_delay,
                      partial(_tick, weakref.ref(self), interval,
                              callback))
