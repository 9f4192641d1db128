"""Ingress/egress packet buffers of the switch model (Figure 5).

Synchronous FIFO buffers used by the packet-processing pipeline (the
event-driven queue with service dynamics lives in
:mod:`repro.simnet.queue_sim`).  Limits are enforced in both packets
and bytes; overflow drops are counted.
"""

from __future__ import annotations

from collections import deque

from repro.packet import Packet

__all__ = ["PacketQueue"]


class PacketQueue:
    """A bounded FIFO with packet- and byte-level occupancy tracking."""

    def __init__(self, name: str, capacity_packets: int = 1024,
                 capacity_bytes: int | None = None) -> None:
        if capacity_packets < 1:
            raise ValueError(
                f"capacity must be >= 1 packet: {capacity_packets!r}")
        if capacity_bytes is not None and capacity_bytes < 1:
            raise ValueError(
                f"byte capacity must be >= 1: {capacity_bytes!r}")
        self.name = name
        self.capacity_packets = capacity_packets
        self.capacity_bytes = capacity_bytes
        self._queue: deque[Packet] = deque()
        self._bytes = 0
        self.enqueued = 0
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._queue)

    def __iter__(self):
        """The buffered packets, head first (nothing is removed)."""
        return iter(self._queue)

    @property
    def backlog_bytes(self) -> int:
        """Bytes currently buffered."""
        return self._bytes

    @property
    def is_empty(self) -> bool:
        """True when no packet is buffered."""
        return not self._queue

    @property
    def is_full(self) -> bool:
        """True when a further push would overflow a limit."""
        if len(self._queue) >= self.capacity_packets:
            return True
        return (self.capacity_bytes is not None
                and self._bytes >= self.capacity_bytes)

    def push(self, packet: Packet, now: float = 0.0) -> bool:
        """Enqueue; returns False (and counts a drop) on overflow."""
        if self.is_full:
            packet.dropped = True
            self.dropped += 1
            return False
        packet.enqueued_at = now
        self._queue.append(packet)
        self._bytes += packet.size_bytes
        self.enqueued += 1
        return True

    def pop(self, now: float = 0.0) -> Packet | None:
        """Dequeue the head packet, or None when empty."""
        if not self._queue:
            return None
        packet = self._queue.popleft()
        self._bytes -= packet.size_bytes
        packet.dequeued_at = now
        return packet

    def peek(self) -> Packet | None:
        """The head packet without removing it."""
        return self._queue[0] if self._queue else None

    def __repr__(self) -> str:
        return (f"PacketQueue({self.name!r}, {len(self._queue)}/"
                f"{self.capacity_packets} pkts, {self._bytes} B)")
