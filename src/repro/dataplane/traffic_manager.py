"""Traffic managers: scheduling and the cognitive AQM hook (Figure 5/6).

The plain :class:`TrafficManager` schedules egress queues with strict
priority; the :class:`CognitiveTrafficManager` additionally runs an
AQM policy at every egress enqueue — the "Cognitive Traffic Manager"
block of Figure 6, where the pCAM-based AQM lives.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import islice
from typing import Sequence

from repro.packet import Packet
from repro.dataplane.queues import PacketQueue
from repro.dataplane.telemetry import TelemetryCollector
from repro.netfunc.aqm.base import AQMAlgorithm, QueueView
from repro.observability.tracing import Tracer, maybe_span

__all__ = ["Admission", "CognitiveTrafficManager", "PortStats",
           "TrafficManager"]


class Admission(enum.Enum):
    """Per-packet outcome of a (batched) enqueue attempt."""

    QUEUED = "queued"
    AQM_DROP = "aqm_drop"
    OVERFLOW_DROP = "overflow_drop"

    @property
    def admitted(self) -> bool:
        """True when the packet made it into a queue."""
        return self is Admission.QUEUED


@dataclass
class PortStats:
    """Counters per egress port."""

    enqueued: int = 0
    dequeued: int = 0
    aqm_drops: int = 0
    overflow_drops: int = 0


class TrafficManager:
    """Per-port egress queues with strict-priority scheduling.

    Each port owns one queue per priority class; :meth:`dequeue`
    always serves the lowest-numbered non-empty class.
    """

    def __init__(self, n_ports: int, n_priorities: int = 2,
                 queue_capacity: int = 1024) -> None:
        if n_ports < 1:
            raise ValueError(f"need at least one port: {n_ports!r}")
        if n_priorities < 1:
            raise ValueError(
                f"need at least one priority class: {n_priorities!r}")
        self.n_ports = n_ports
        self.n_priorities = n_priorities
        self._queues = [
            [PacketQueue(name=f"port{port}.prio{prio}",
                         capacity_packets=queue_capacity)
             for prio in range(n_priorities)]
            for port in range(n_ports)]
        self.stats = [PortStats() for _ in range(n_ports)]

    def _classify(self, packet: Packet) -> int:
        return min(packet.priority, self.n_priorities - 1)

    def queue(self, port: int, priority: int) -> PacketQueue:
        """The underlying buffer of one (port, priority) pair."""
        if not 0 <= port < self.n_ports:
            raise IndexError(f"port {port} out of range")
        if not 0 <= priority < self.n_priorities:
            raise IndexError(f"priority {priority} out of range")
        return self._queues[port][priority]

    def enqueue(self, port: int, packet: Packet, now: float = 0.0) -> bool:
        """Admit a packet to its port/class queue."""
        if not 0 <= port < self.n_ports:
            raise IndexError(f"port {port} out of range")
        queue = self._queues[port][self._classify(packet)]
        admitted = queue.push(packet, now)
        if admitted:
            self.stats[port].enqueued += 1
        else:
            self.stats[port].overflow_drops += 1
        return admitted

    def enqueue_batch(self, port: int, packets: Sequence[Packet],
                      now: float = 0.0) -> list[Admission]:
        """Admit a chunk of packets; per-packet outcomes in order."""
        return [Admission.QUEUED if self.enqueue(port, packet, now)
                else Admission.OVERFLOW_DROP for packet in packets]

    def dequeue(self, port: int, now: float = 0.0) -> Packet | None:
        """Serve the highest-priority pending packet of a port."""
        if not 0 <= port < self.n_ports:
            raise IndexError(f"port {port} out of range")
        for queue in self._queues[port]:
            packet = queue.pop(now)
            if packet is not None:
                self.stats[port].dequeued += 1
                return packet
        return None

    def peek(self, port: int, limit: int) -> list[Packet] | None:
        """The next ``limit`` packets :meth:`dequeue` would serve.

        Strict priority, then FIFO; nothing is removed.  A list
        shorter than ``limit`` holds everything the port has pending.
        """
        if not 0 <= port < self.n_ports:
            raise IndexError(f"port {port} out of range")
        ahead: list[Packet] = []
        for queue in self._queues[port]:
            ahead.extend(islice(queue, limit - len(ahead)))
            if len(ahead) >= limit:
                break
        return ahead

    def backlog(self, port: int) -> int:
        """Pending packets on a port across all classes."""
        return sum(len(queue) for queue in self._queues[port])


class _PortQueueView:
    """Adapts a port's queue set to the AQM QueueView protocol."""

    def __init__(self, manager: "CognitiveTrafficManager",
                 port: int) -> None:
        self._manager = manager
        self._port = port

    @property
    def backlog_packets(self) -> int:
        """Pending packets across the port's classes."""
        return self._manager.backlog(self._port)

    @property
    def backlog_bytes(self) -> int:
        """Pending bytes across the port's classes."""
        return sum(queue.backlog_bytes
                   for queue in self._manager._queues[self._port])

    @property
    def capacity_packets(self) -> int:
        """Aggregate packet capacity of the port's queues."""
        return sum(queue.capacity_packets
                   for queue in self._manager._queues[self._port])

    @property
    def service_rate_bps(self) -> float:
        """The port's drain rate [bits/s]."""
        return self._manager.port_rate_bps

    @property
    def last_sojourn_s(self) -> float:
        """Sojourn time of the port's most recently served packet [s]."""
        return self._manager.last_sojourn_s(self._port)


class CognitiveTrafficManager(TrafficManager):
    """A traffic manager with an AQM policy at every egress port.

    With a ``telemetry`` collector attached, per-port admission
    outcomes are recorded as events and any degradation-capable AQM
    (one exposing a ``telemetry`` attribute, e.g.
    :class:`repro.robustness.degradation.DegradingAQM`) that has no
    collector of its own is wired to the shared one, so per-table
    fallback events surface alongside the admission counters.
    """

    def __init__(self, n_ports: int, aqm_factory, n_priorities: int = 2,
                 queue_capacity: int = 1024,
                 port_rate_bps: float = 10e9,
                 telemetry: TelemetryCollector | None = None,
                 tracer: Tracer | None = None) -> None:
        super().__init__(n_ports, n_priorities, queue_capacity)
        if port_rate_bps <= 0:
            raise ValueError(
                f"port rate must be positive: {port_rate_bps!r}")
        self.port_rate_bps = port_rate_bps
        self.telemetry = telemetry
        #: Optional span tracer covering AQM consults and queue admits.
        self.tracer = tracer
        self._aqms: list[AQMAlgorithm] = [aqm_factory()
                                          for _ in range(n_ports)]
        if telemetry is not None:
            for aqm in self._aqms:
                if hasattr(aqm, "telemetry") and aqm.telemetry is None:
                    aqm.telemetry = telemetry
        self._views = [_PortQueueView(self, port)
                       for port in range(n_ports)]
        self._last_sojourns = [0.0] * n_ports

    @property
    def degraded_ports(self) -> tuple[int, ...]:
        """Ports whose AQM is currently serving from a fallback path."""
        return tuple(port for port, aqm in enumerate(self._aqms)
                     if getattr(aqm, "degraded", False))

    def aqm(self, port: int) -> AQMAlgorithm:
        """The AQM instance managing one port."""
        if not 0 <= port < self.n_ports:
            raise IndexError(f"port {port} out of range")
        return self._aqms[port]

    def queue_view(self, port: int) -> QueueView:
        """The queue-state view an AQM (or a sensor) consults."""
        if not 0 <= port < self.n_ports:
            raise IndexError(f"port {port} out of range")
        return self._views[port]

    def last_sojourn_s(self, port: int) -> float:
        """Sojourn time of the port's most recently served packet [s]."""
        return self._last_sojourns[port]

    def enqueue(self, port: int, packet: Packet, now: float = 0.0) -> bool:
        """Admit a packet after consulting the port's AQM."""
        return self.enqueue_batch(port, [packet], now)[0].admitted

    def enqueue_batch(self, port: int, packets: Sequence[Packet],
                      now: float = 0.0) -> list[Admission]:
        """Admit a chunk after one batched AQM consultation.

        The port's AQM judges the whole chunk against the chunk-start
        queue state via its vectorised ``on_enqueue_batch`` hook (for
        the pCAM AQM, a single analog-pipeline search for the entire
        chunk); survivors are then pushed per packet so capacity is
        still enforced exactly.  A chunk of one is the scalar path.
        """
        if not 0 <= port < self.n_ports:
            raise IndexError(f"port {port} out of range")
        if not packets:
            return []
        with maybe_span(self.tracer, "tm.enqueue", port=port,
                        n=len(packets)):
            with maybe_span(self.tracer, "tm.aqm", port=port):
                drops = self._aqms[port].on_enqueue_batch(
                    packets, self._views[port], now)
            outcomes: list[Admission] = []
            with maybe_span(self.tracer, "tm.queue", port=port):
                for packet, drop in zip(packets, drops):
                    if drop:
                        packet.dropped = True
                        self.stats[port].aqm_drops += 1
                        outcomes.append(Admission.AQM_DROP)
                    elif super().enqueue(port, packet, now):
                        outcomes.append(Admission.QUEUED)
                    else:
                        outcomes.append(Admission.OVERFLOW_DROP)
        if self.telemetry is not None:
            for outcome in outcomes:
                self.telemetry.record_event(
                    f"port{port}.{outcome.value}")
        return outcomes

    def dequeue(self, port: int, now: float = 0.0) -> Packet | None:
        """Serve the next packet, honouring AQM head drops."""
        with maybe_span(self.tracer, "tm.dequeue", port=port):
            return self._dequeue(port, now)

    def peek(self, port: int, limit: int) -> list[Packet] | None:
        """As :meth:`TrafficManager.peek`; ``None`` for a port whose
        AQM may drop at the head, which only a real dequeue decides."""
        if self.aqm(port).drops_at_head:
            return None
        return super().peek(port, limit)

    def _dequeue(self, port: int, now: float) -> Packet | None:
        while True:
            packet = super().dequeue(port, now)
            if packet is None:
                return None
            sojourn = (now - packet.enqueued_at
                       if packet.enqueued_at is not None else 0.0)
            self._last_sojourns[port] = sojourn
            if self._aqms[port].on_dequeue(packet, self._views[port],
                                           now, sojourn):
                packet.dropped = True
                self.stats[port].aqm_drops += 1
                self.stats[port].dequeued -= 1
                continue
            return packet
