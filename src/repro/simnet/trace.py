"""Arrival-trace capture and replay.

Comparing AQM policies is only fair on *identical* arrival processes.
The seeded generators already guarantee that for synthetic traffic;
this module extends the guarantee to arbitrary workloads: capture any
generator's output once (:class:`TraceRecorder`), persist it
(``.npz``), and replay it bit-identically against every policy
(:class:`TraceReplayGenerator`) — or import externally captured
traces by building an :class:`ArrivalTrace` from arrays.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from repro.packet import Packet
from repro.simnet.engine import Simulator

__all__ = ["ArrivalTrace", "TraceRecorder", "TraceReplayGenerator"]


@dataclass(frozen=True)
class ArrivalTrace:
    """A canned packet arrival process."""

    times_s: np.ndarray
    sizes_bytes: np.ndarray
    flow_ids: np.ndarray
    priorities: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.times_s)
        for name in ("sizes_bytes", "flow_ids", "priorities"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} length != times length")
        if n and np.any(np.diff(self.times_s) < 0):
            raise ValueError("trace times must be non-decreasing")

    def __len__(self) -> int:
        return len(self.times_s)

    @property
    def duration_s(self) -> float:
        """Time of the last arrival [s]."""
        return float(self.times_s[-1]) if len(self) else 0.0

    @property
    def mean_rate_pps(self) -> float:
        """Average arrival rate over the trace [packets/s]."""
        if len(self) < 2 or self.duration_s == 0.0:
            return 0.0
        return (len(self) - 1) / self.duration_s

    @property
    def offered_load_bps(self) -> float:
        """Average offered load of the trace [bits/s]."""
        if self.duration_s == 0.0:
            return 0.0
        return float(self.sizes_bytes.sum()) * 8.0 / self.duration_s

    def save(self, path: str | Path) -> None:
        """Persist the trace to a ``.npz`` archive."""
        np.savez_compressed(Path(path), times_s=self.times_s,
                            sizes_bytes=self.sizes_bytes,
                            flow_ids=self.flow_ids,
                            priorities=self.priorities)

    @classmethod
    def load(cls, path: str | Path) -> "ArrivalTrace":
        """Load a trace saved by :meth:`save`."""
        with np.load(Path(path)) as archive:
            return cls(times_s=archive["times_s"],
                       sizes_bytes=archive["sizes_bytes"],
                       flow_ids=archive["flow_ids"],
                       priorities=archive["priorities"])

    @classmethod
    def from_columns(cls, chunks) -> "ArrivalTrace":
        """Build a trace from an iterable of scenario column chunks.

        Accepts whatever :meth:`Scenario.stream
        <repro.simnet.scenarios.Scenario.stream>` yields and
        materialises the arrival process (times, sizes, flow ids,
        priorities) — the 5-tuple columns are deliberately dropped:
        a trace is a queueing workload, not a forwarding one.
        """
        chunks = list(chunks)
        if not chunks:
            return cls(times_s=np.zeros(0),
                       sizes_bytes=np.zeros(0, dtype=np.int64),
                       flow_ids=np.zeros(0, dtype=np.int64),
                       priorities=np.zeros(0, dtype=np.int64))
        return cls(
            times_s=np.concatenate([c.times_s for c in chunks]),
            sizes_bytes=np.concatenate([c.sizes_bytes for c in chunks]),
            flow_ids=np.concatenate([c.flow_ids for c in chunks]),
            priorities=np.concatenate([c.priorities for c in chunks]))


class TraceRecorder:
    """A pass-through sink that records everything it forwards.

    Interpose it between a generator and a queue::

        recorder = TraceRecorder(sim, queue.enqueue)
        generator.attach(sim, recorder)
        ...
        trace = recorder.trace()
    """

    def __init__(self, sim: Simulator, sink=None) -> None:
        self._sim = weakref.proxy(sim)
        self._sink = sink
        self._times: list[float] = []
        self._sizes: list[int] = []
        self._flows: list[int] = []
        self._priorities: list[int] = []

    def __call__(self, packet: Packet) -> None:
        self._times.append(self._sim.now)
        self._sizes.append(packet.size_bytes)
        self._flows.append(packet.flow_id)
        self._priorities.append(packet.priority)
        if self._sink is not None:
            self._sink(packet)

    def __len__(self) -> int:
        return len(self._times)

    def trace(self) -> ArrivalTrace:
        """The recorded arrivals as an immutable trace."""
        return ArrivalTrace(
            times_s=np.asarray(self._times),
            sizes_bytes=np.asarray(self._sizes, dtype=int),
            flow_ids=np.asarray(self._flows, dtype=int),
            priorities=np.asarray(self._priorities, dtype=int))


class TraceReplayGenerator:
    """Replays an :class:`ArrivalTrace` into a sink, bit-identically."""

    def __init__(self, trace: ArrivalTrace,
                 time_offset_s: float = 0.0) -> None:
        if time_offset_s < 0:
            raise ValueError(
                f"offset must be non-negative: {time_offset_s!r}")
        self.trace = trace
        self.time_offset_s = time_offset_s
        self.replayed = 0

    def attach(self, sim: Simulator, sink) -> None:
        """Schedule every trace arrival on the simulator."""
        self._sim = weakref.proxy(sim)
        self._sink = sink
        for index in range(len(self.trace)):
            when = float(self.trace.times_s[index]) + self.time_offset_s
            sim.schedule_at(when, partial(self._emit, index))

    def _emit(self, i: int) -> None:
        packet = Packet(
            size_bytes=int(self.trace.sizes_bytes[i]),
            flow_id=int(self.trace.flow_ids[i]),
            priority=int(self.trace.priorities[i]),
            created_at=self._sim.now)
        self.replayed += 1
        self._sink(packet)
