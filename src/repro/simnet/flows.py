"""Traffic generators for the queue-management experiments.

Figure 8 simulates "network queues with the Poisson distributed
network flows"; :class:`PoissonFlowGenerator` is that workload.  The
on-off and Pareto-burst generators provide the bursty traffic whose
detection the paper attributes to the third-order derivative feature
("the third-order derivative provides information about the bursty
periods of the network traffic").
"""

from __future__ import annotations

import weakref
from typing import Callable, Protocol

import numpy as np

from repro.packet import Packet
from repro.simnet.engine import Simulator

__all__ = [
    "FlowGenerator",
    "OnOffFlowGenerator",
    "ParetoBurstGenerator",
    "PoissonFlowGenerator",
]

#: Callback signature a generator delivers packets into.
PacketSink = Callable[[Packet], None]


class FlowGenerator(Protocol):
    """Anything that can be attached to a simulator and emit packets.

    The generators here hold the simulator through a weak proxy, so a
    finished run is freed by reference counting (DESIGN.md section 6).
    """

    def attach(self, sim: Simulator, sink: PacketSink) -> None:
        """Start emitting packets into ``sink`` on the simulator."""
        ...


class PoissonFlowGenerator:
    """Poisson arrivals: exponential inter-arrival times at a mean rate.

    Parameters
    ----------
    rate_pps:
        Mean packet arrival rate [packets/s].
    packet_size_bytes:
        Fixed wire size of generated packets.
    flow_id, priority:
        Stamped onto every packet.
    rng:
        Seeded generator for reproducible arrival processes.
    stop_at:
        Optional simulation time after which the flow goes silent.
    rate_fn:
        Optional time-varying rate multiplier ``f(t) -> factor``; used
        to create the overload phases of the Figure 8 experiment.
    """

    def __init__(self, rate_pps: float, packet_size_bytes: int = 1000,
                 flow_id: int = 0, priority: int = 0,
                 rng: np.random.Generator | None = None,
                 stop_at: float | None = None,
                 rate_fn: Callable[[float], float] | None = None) -> None:
        if rate_pps <= 0:
            raise ValueError(f"rate must be positive: {rate_pps!r}")
        self.rate_pps = rate_pps
        self.packet_size_bytes = packet_size_bytes
        self.flow_id = flow_id
        self.priority = priority
        self.stop_at = stop_at
        self.rate_fn = rate_fn
        self._rng = rng or np.random.default_rng()
        self.generated = 0

    def _current_rate(self, now: float) -> float:
        if self.rate_fn is None:
            return self.rate_pps
        factor = self.rate_fn(now)
        if factor < 0:
            raise ValueError(f"rate factor must be >= 0: {factor!r}")
        return self.rate_pps * factor

    def attach(self, sim: Simulator, sink: PacketSink) -> None:
        """Start emitting packets into ``sink``."""
        self._sim = weakref.proxy(sim)
        self._sink = sink
        self._schedule_next()

    def _emit(self) -> None:
        now = self._sim.now
        if self.stop_at is not None and now >= self.stop_at:
            return
        packet = Packet(size_bytes=self.packet_size_bytes,
                        flow_id=self.flow_id,
                        priority=self.priority,
                        created_at=now)
        self.generated += 1
        self._sink(packet)
        self._schedule_next()

    def _schedule_next(self) -> None:
        sim = self._sim
        rate = self._current_rate(sim.now)
        if rate <= 0.0:
            # Silent phase: poll again shortly for the rate to return.
            sim.schedule(1.0 / self.rate_pps, self._schedule_next)
            return
        sim.schedule(float(self._rng.exponential(1.0 / rate)), self._emit)


class OnOffFlowGenerator:
    """Markov-modulated on-off source (exponential on/off periods).

    During ON periods packets arrive as Poisson at ``peak_rate_pps``;
    OFF periods are silent.
    """

    def __init__(self, peak_rate_pps: float, mean_on_s: float,
                 mean_off_s: float, packet_size_bytes: int = 1000,
                 flow_id: int = 0, priority: int = 0,
                 rng: np.random.Generator | None = None) -> None:
        if peak_rate_pps <= 0:
            raise ValueError(f"rate must be positive: {peak_rate_pps!r}")
        if mean_on_s <= 0 or mean_off_s <= 0:
            raise ValueError("on/off periods must be positive")
        self.peak_rate_pps = peak_rate_pps
        self.mean_on_s = mean_on_s
        self.mean_off_s = mean_off_s
        self.packet_size_bytes = packet_size_bytes
        self.flow_id = flow_id
        self.priority = priority
        self._rng = rng or np.random.default_rng()
        self.generated = 0
        self._on = False
        self._phase_ends = 0.0

    @property
    def duty_cycle(self) -> float:
        """Long-run fraction of time the source is ON."""
        return self.mean_on_s / (self.mean_on_s + self.mean_off_s)

    @property
    def mean_rate_pps(self) -> float:
        """Long-run average arrival rate."""
        return self.peak_rate_pps * self.duty_cycle

    def attach(self, sim: Simulator, sink: PacketSink) -> None:
        """Start emitting packets into ``sink`` on the simulator."""
        self._sim = weakref.proxy(sim)
        self._sink = sink
        self._start_off()

    def _start_on(self) -> None:
        self._on = True
        self._phase_ends = self._sim.now + float(
            self._rng.exponential(self.mean_on_s))
        self._sim.schedule_at(self._phase_ends, self._start_off)
        self._emit()

    def _start_off(self) -> None:
        self._on = False
        self._sim.schedule(float(self._rng.exponential(self.mean_off_s)),
                           self._start_on)

    def _emit(self) -> None:
        now = self._sim.now
        if not self._on or now >= self._phase_ends:
            return
        packet = Packet(size_bytes=self.packet_size_bytes,
                        flow_id=self.flow_id,
                        priority=self.priority,
                        created_at=now)
        self.generated += 1
        self._sink(packet)
        self._sim.schedule(
            float(self._rng.exponential(1.0 / self.peak_rate_pps)),
            self._emit)


class ParetoBurstGenerator:
    """Heavy-tailed burst trains (Pareto burst sizes, Poisson epochs).

    Burst epochs arrive as Poisson; each epoch injects a back-to-back
    train of packets whose count is Pareto distributed — the classic
    self-similar traffic model and the stressor for the third-order
    derivative feature of the analog AQM.
    """

    def __init__(self, burst_rate_hz: float, mean_burst_packets: float,
                 pareto_alpha: float = 1.5,
                 packet_size_bytes: int = 1000,
                 packet_spacing_s: float = 1e-5,
                 flow_id: int = 0, priority: int = 0,
                 rng: np.random.Generator | None = None) -> None:
        if burst_rate_hz <= 0:
            raise ValueError(f"burst rate must be positive: {burst_rate_hz!r}")
        if mean_burst_packets < 1:
            raise ValueError("mean burst size must be >= 1 packet")
        if pareto_alpha <= 1.0:
            raise ValueError(
                f"alpha must exceed 1 for a finite mean: {pareto_alpha!r}")
        self.burst_rate_hz = burst_rate_hz
        self.mean_burst_packets = mean_burst_packets
        self.pareto_alpha = pareto_alpha
        self.packet_size_bytes = packet_size_bytes
        self.packet_spacing_s = packet_spacing_s
        self.flow_id = flow_id
        self.priority = priority
        self._rng = rng or np.random.default_rng()
        self.generated = 0
        # Scale so the Pareto mean equals mean_burst_packets:
        # mean = xm * alpha / (alpha - 1).
        self._x_m = mean_burst_packets * (pareto_alpha - 1) / pareto_alpha

    def _burst_size(self) -> int:
        size = self._x_m * (1.0 + self._rng.pareto(self.pareto_alpha))
        return max(1, int(round(size)))

    def attach(self, sim: Simulator, sink: PacketSink) -> None:
        """Start emitting packets into ``sink`` on the simulator."""
        self._sim = weakref.proxy(sim)
        self._sink = sink
        self._schedule_burst()

    def _schedule_burst(self) -> None:
        self._sim.schedule(
            float(self._rng.exponential(1.0 / self.burst_rate_hz)),
            self._burst)

    def _burst(self) -> None:
        for index in range(self._burst_size()):
            self._sim.schedule(index * self.packet_spacing_s,
                               self._emit_one)
        self._schedule_burst()

    def _emit_one(self) -> None:
        packet = Packet(size_bytes=self.packet_size_bytes,
                        flow_id=self.flow_id,
                        priority=self.priority,
                        created_at=self._sim.now)
        self.generated += 1
        self._sink(packet)
