"""AQM algorithm interface and the trivial tail-drop baseline.

Every AQM in this package — the digital baselines (RED, CoDel, PIE)
and the paper's pCAM-based analog AQM — implements the same two hooks:

* :meth:`AQMAlgorithm.on_enqueue` — called before a packet is admitted;
  returning True drops it at the door (RED, PIE, pCAM-AQM style).
* :meth:`AQMAlgorithm.on_dequeue` — called when a packet reaches the
  head of line; returning True discards it instead of serving it
  (CoDel style).

The queue exposes itself to the algorithm through the narrow
:class:`QueueView` protocol so AQMs cannot reach into scheduling
internals.
"""

from __future__ import annotations

import abc
from typing import Protocol, Sequence

import numpy as np

from repro.packet import Packet

__all__ = ["AQMAlgorithm", "QueueView", "TailDropAQM"]


class QueueView(Protocol):
    """What an AQM algorithm may observe about its queue."""

    @property
    def backlog_packets(self) -> int:
        """Packets currently queued."""
        ...

    @property
    def backlog_bytes(self) -> int:
        """Bytes currently queued."""
        ...

    @property
    def capacity_packets(self) -> int:
        """Hard buffer limit in packets."""
        ...

    @property
    def service_rate_bps(self) -> float:
        """Drain rate of the output line [bits/s]."""
        ...

    @property
    def last_sojourn_s(self) -> float:
        """Sojourn time of the most recently served packet [s]."""
        ...


class AQMAlgorithm(abc.ABC):
    """Base class for active queue management policies."""

    #: Human-readable algorithm name (used in benchmark tables).
    name: str = "aqm"

    def on_enqueue(self, packet: Packet, queue: QueueView,
                   now: float) -> bool:
        """Return True to drop the arriving packet."""
        return False

    def on_enqueue_batch(self, packets: Sequence[Packet],
                         queue: QueueView, now: float) -> np.ndarray:
        """Per-packet drop verdicts for a chunk of arrivals.

        The default consults :meth:`on_enqueue` packet by packet;
        batch-capable algorithms (the pCAM AQM) override this with a
        vectorised evaluation.
        """
        return np.array([self.on_enqueue(packet, queue, now)
                         for packet in packets], dtype=bool)

    def on_dequeue(self, packet: Packet, queue: QueueView,
                   now: float, sojourn_s: float) -> bool:
        """Return True to discard the head packet instead of serving it."""
        return False

    @property
    def drops_at_head(self) -> bool:
        """True when :meth:`on_dequeue` may discard a head packet.

        Any subclass that overrides ``on_dequeue`` is assumed to drop
        at the head unless it declares otherwise; a port whose AQM
        never does can be served from a look-ahead of its queues.
        """
        return type(self).on_dequeue is not AQMAlgorithm.on_dequeue

    def reset(self) -> None:
        """Clear any controller state between runs."""


class TailDropAQM(AQMAlgorithm):
    """No active management: drop only on buffer overflow.

    The queue itself enforces the capacity limit; this policy never
    drops proactively, making it the "without AQM" curve of Figure 8.
    """

    name = "tail-drop"
