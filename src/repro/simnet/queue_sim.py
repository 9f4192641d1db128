"""The bottleneck queue under study (Figure 8's simulated queue).

A single FIFO served at a fixed line rate, with an AQM policy hooked
at both the enqueue and dequeue sides, a hard capacity (tail drop as
the last resort), and full metrics instrumentation.
"""

from __future__ import annotations

import weakref
from collections import deque
from typing import Sequence

import numpy as np

from repro.packet import Packet
from repro.netfunc.aqm.base import AQMAlgorithm, TailDropAQM
from repro.simnet.engine import Simulator
from repro.simnet.metrics import DelayRecorder

__all__ = ["BottleneckQueue"]


class BottleneckQueue:
    """A capacity-limited FIFO with pluggable AQM.

    Parameters
    ----------
    sim:
        The event loop driving arrivals and departures, held through
        a weak proxy: the caller keeps it alive while the queue runs.
    service_rate_bps:
        Drain rate of the output line [bits/s].
    capacity_packets:
        Hard buffer limit; arrivals beyond it are tail-dropped even if
        the AQM admitted them.
    aqm:
        The management policy; defaults to plain tail drop.
    recorder:
        Metrics sink; a fresh one is created when omitted.
    sample_interval_s:
        Period of the queue-occupancy sampler (0 disables sampling).
    """

    def __init__(self, sim: Simulator, service_rate_bps: float,
                 capacity_packets: int = 1000,
                 aqm: AQMAlgorithm | None = None,
                 recorder: DelayRecorder | None = None,
                 sample_interval_s: float = 0.0,
                 delivery_listener=None,
                 drop_listener=None) -> None:
        if service_rate_bps <= 0:
            raise ValueError(
                f"service rate must be positive: {service_rate_bps!r}")
        if capacity_packets < 1:
            raise ValueError(
                f"capacity must be >= 1 packet: {capacity_packets!r}")
        self.sim = weakref.proxy(sim)
        self.service_rate_bps = service_rate_bps
        self.capacity_packets = capacity_packets
        self.aqm = aqm or TailDropAQM()
        self.recorder = recorder or DelayRecorder()
        self._queue: deque[Packet] = deque()
        self._backlog_bytes = 0
        self._busy = False
        self._last_sojourn_s = 0.0
        self.admitted = 0
        self.aqm_drops = 0
        self.overflow_drops = 0
        #: Optional hooks for responsive sources (AIMD congestion
        #: control): called with the packet on service completion and
        #: on every drop, respectively.
        self.delivery_listener = delivery_listener
        self.drop_listener = drop_listener
        if sample_interval_s > 0.0:
            sim.every(sample_interval_s, self._sample)

    # ------------------------------------------------------------------
    # QueueView protocol
    # ------------------------------------------------------------------
    @property
    def backlog_packets(self) -> int:
        """Packets waiting (excluding the one in service)."""
        return len(self._queue)

    @property
    def backlog_bytes(self) -> int:
        """Bytes waiting (excluding the one in service)."""
        return self._backlog_bytes

    @property
    def last_sojourn_s(self) -> float:
        """Sojourn time of the most recently served packet [s]."""
        return self._last_sojourn_s

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet) -> None:
        """Arrival entry point (wired as the generators' sink)."""
        now = self.sim.now
        if self.aqm.on_enqueue(packet, self, now):
            self._drop(packet, aqm=True)
            return
        if len(self._queue) >= self.capacity_packets:
            self._drop(packet, aqm=False)
            return
        packet.enqueued_at = now
        self._queue.append(packet)
        self._backlog_bytes += packet.size_bytes
        self.admitted += 1
        if not self._busy:
            self._serve_next()

    def enqueue_batch(self, packets: Sequence[Packet]) -> int:
        """Admit a chunk of simultaneous arrivals; returns how many.

        The AQM is consulted once for the whole chunk through its
        vectorised :meth:`~repro.netfunc.aqm.base.AQMAlgorithm.
        on_enqueue_batch` hook — all verdicts are made against the
        chunk-start queue state (a chunk of one is exactly
        :meth:`enqueue`).  Capacity is still enforced per packet as
        survivors are appended.
        """
        now = self.sim.now
        verdicts = np.asarray(
            self.aqm.on_enqueue_batch(packets, self, now), dtype=bool)
        admitted = 0
        for packet, drop in zip(packets, verdicts):
            if drop:
                self._drop(packet, aqm=True)
                continue
            if len(self._queue) >= self.capacity_packets:
                self._drop(packet, aqm=False)
                continue
            packet.enqueued_at = now
            self._queue.append(packet)
            self._backlog_bytes += packet.size_bytes
            self.admitted += 1
            admitted += 1
        if admitted and not self._busy:
            self._serve_next()
        return admitted

    def _serve_next(self) -> None:
        while self._queue:
            packet = self._queue.popleft()
            self._backlog_bytes -= packet.size_bytes
            now = self.sim.now
            assert packet.enqueued_at is not None
            sojourn = now - packet.enqueued_at
            if self.aqm.on_dequeue(packet, self, now, sojourn):
                self._drop(packet, aqm=True)
                continue
            self._busy = True
            service_time = packet.size_bytes * 8.0 / self.service_rate_bps
            self.sim.schedule(
                service_time, lambda p=packet: self._complete(p))
            return
        self._busy = False

    def _complete(self, packet: Packet) -> None:
        now = self.sim.now
        packet.dequeued_at = now
        assert packet.enqueued_at is not None
        sojourn = now - packet.enqueued_at
        self._last_sojourn_s = sojourn
        self.recorder.record_departure(now, sojourn, packet.priority)
        if self.delivery_listener is not None:
            self.delivery_listener(packet)
        self._serve_next()

    def _drop(self, packet: Packet, *, aqm: bool) -> None:
        packet.dropped = True
        if aqm:
            self.aqm_drops += 1
        else:
            self.overflow_drops += 1
        self.recorder.record_drop(self.sim.now, packet.priority)
        if self.drop_listener is not None:
            self.drop_listener(packet)

    def _sample(self) -> None:
        self.recorder.record_queue_sample(
            self.sim.now, len(self._queue), self._backlog_bytes)
