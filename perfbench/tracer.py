"""Outside-in span tracing for the benchmark's traced runs.

Nothing here touches ``src/``: :meth:`Tracer.wrap` replaces a public
method on one *built object* with a timing wrapper stored as an
instance attribute, so the library's own call sites (which look the
method up on the instance) reach the wrapper.  Each wrapper is one
span.  Spans nest through a stack, so a span's self time is its
duration minus the part covered by the spans opened inside it, and
the benchmark's per-step root span closes the accounting: root self
time is the step's "unattributed" time.

All times are integer ``perf_counter_ns`` readings, so the closure
``sum(self times) == sum(root durations)`` holds exactly.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

__all__ = ["ROOT", "SpanStat", "Tracer"]

#: Span name of the benchmark's own per-step root span.
ROOT = "step"


@dataclass
class SpanStat:
    """Aggregate of every span with one name."""

    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


class Tracer:
    """Span stack plus per-name aggregates (and optional raw spans).

    ``record_spans=True`` keeps every span as ``(id, parent id, name,
    start ns, end ns)`` in memory; the self-tests use it to check that
    each child lies inside its parent.  Benchmark runs keep only the
    aggregates.
    """

    def __init__(self, *, record_spans: bool = False) -> None:
        self.stats: dict[str, SpanStat] = defaultdict(SpanStat)
        #: Free-form counters fed by wrapper result hooks.
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple[int, int, str, int, int]] | None = \
            [] if record_spans else None
        # One frame per open span: [span id, child ns covered].
        self._stack: list[list[int]] = []
        self._next_id = 1

    def _open(self) -> tuple[int, int]:
        span_id = self._next_id
        self._next_id += 1
        self._stack.append([span_id, 0])
        return span_id, time.perf_counter_ns()

    def _close(self, name: str, span_id: int, start: int) -> None:
        end = time.perf_counter_ns()
        duration = end - start
        _, covered = self._stack.pop()
        stat = self.stats[name]
        stat.calls += 1
        stat.total_ns += duration
        stat.self_ns += duration - covered
        parent = 0
        if self._stack:
            self._stack[-1][1] += duration
            parent = self._stack[-1][0]
        if self.spans is not None:
            self.spans.append((span_id, parent, name, start, end))

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` under one span called ``name``."""
        span_id, start = self._open()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(name, span_id, start)

    def wrap(self, obj, method: str, name: str,
             on_result: Callable | None = None) -> None:
        """Trace every call of ``obj.<method>`` as a span ``name``.

        ``on_result(result, args)``, when given, runs inside the span
        after the call returns, to count work the result reveals.
        """
        inner = getattr(obj, method)

        def traced(*args, **kwargs):
            span_id, start = self._open()
            try:
                result = inner(*args, **kwargs)
                if on_result is not None:
                    on_result(result, args)
                return result
            finally:
                self._close(name, span_id, start)

        setattr(obj, method, traced)

    # ------------------------------------------------------------------
    def wall_ns(self) -> int:
        """Summed duration of the root (per-step) spans."""
        return self.stats[ROOT].total_ns if ROOT in self.stats else 0

    def self_ns(self, *names: str) -> int:
        return sum(self.stats[n].self_ns for n in names if n in self.stats)

    def total_ns(self, *names: str) -> int:
        return sum(self.stats[n].total_ns for n in names
                   if n in self.stats)

    def calls(self, *names: str) -> int:
        return sum(self.stats[n].calls for n in names if n in self.stats)
