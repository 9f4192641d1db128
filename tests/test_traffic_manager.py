"""Egress scheduling and the cognitive AQM hook."""

import pytest

from repro.dataplane.traffic_manager import (
    CognitiveTrafficManager,
    TrafficManager,
)
from repro.netfunc.aqm.base import AQMAlgorithm
from repro.packet import Packet


class AlwaysDropAQM(AQMAlgorithm):
    name = "always-drop"

    def on_enqueue(self, packet, queue, now):
        return True


class DropAtDequeueAQM(AQMAlgorithm):
    name = "head-drop"

    def __init__(self):
        self.dropped = 0

    def on_dequeue(self, packet, queue, now, sojourn_s):
        if self.dropped == 0:
            self.dropped += 1
            return True
        return False


class TestTrafficManager:
    def test_strict_priority_scheduling(self):
        manager = TrafficManager(n_ports=1, n_priorities=2)
        low = Packet(priority=1)
        high = Packet(priority=0)
        manager.enqueue(0, low)
        manager.enqueue(0, high)
        assert manager.dequeue(0) is high
        assert manager.dequeue(0) is low

    def test_priority_clamped_to_classes(self):
        manager = TrafficManager(n_ports=1, n_priorities=2)
        manager.enqueue(0, Packet(priority=7))
        assert manager.backlog(0) == 1

    def test_overflow_counted(self):
        manager = TrafficManager(n_ports=1, queue_capacity=1)
        manager.enqueue(0, Packet())
        assert not manager.enqueue(0, Packet())
        assert manager.stats[0].overflow_drops == 1

    def test_dequeue_empty_port(self):
        assert TrafficManager(n_ports=1).dequeue(0) is None

    def test_port_bounds_checked(self):
        manager = TrafficManager(n_ports=2)
        with pytest.raises(IndexError):
            manager.enqueue(5, Packet())
        with pytest.raises(IndexError):
            manager.dequeue(-1)
        with pytest.raises(IndexError):
            manager.queue(9, 0)

    def test_peek_lists_what_dequeue_serves_without_removing(self):
        manager = TrafficManager(n_ports=1, n_priorities=2)
        packets = [Packet(priority=p) for p in (1, 0, 1, 0, 1)]
        for packet in packets:
            manager.enqueue(0, packet)
        ahead = manager.peek(0, 4)
        assert manager.backlog(0) == 5
        assert manager.peek(0, 99) == ahead + [packets[4]]
        assert [manager.dequeue(0) for _ in packets] == ahead + [packets[4]]
        assert manager.peek(0, 3) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            TrafficManager(n_ports=0)
        with pytest.raises(ValueError):
            TrafficManager(n_ports=1, n_priorities=0)


class TestCognitiveTrafficManager:
    def test_enqueue_aqm_drop(self):
        manager = CognitiveTrafficManager(1, AlwaysDropAQM)
        packet = Packet()
        assert not manager.enqueue(0, packet)
        assert packet.dropped
        assert manager.stats[0].aqm_drops == 1
        assert manager.backlog(0) == 0

    def test_dequeue_aqm_drop_skips_to_next(self):
        manager = CognitiveTrafficManager(1, DropAtDequeueAQM)
        first, second = Packet(), Packet()
        manager.enqueue(0, first, now=0.0)
        manager.enqueue(0, second, now=0.0)
        served = manager.dequeue(0, now=1.0)
        assert served is second
        assert first.dropped
        assert manager.stats[0].aqm_drops == 1

    def test_per_port_independent_aqms(self):
        manager = CognitiveTrafficManager(2, DropAtDequeueAQM)
        assert manager.aqm(0) is not manager.aqm(1)
        with pytest.raises(IndexError):
            manager.aqm(5)

    def test_last_sojourn_tracked(self):
        manager = CognitiveTrafficManager(1, DropAtDequeueAQM)
        manager.enqueue(0, Packet(), now=0.0)
        manager.enqueue(0, Packet(), now=0.0)
        manager.dequeue(0, now=0.25)
        assert manager.last_sojourn_s(0) == pytest.approx(0.25)

    def test_peek_refuses_a_port_that_drops_at_head(self):
        assert DropAtDequeueAQM().drops_at_head
        assert not AlwaysDropAQM().drops_at_head
        heads = CognitiveTrafficManager(1, DropAtDequeueAQM)
        heads.enqueue(0, Packet())
        assert heads.peek(0, 1) is None
        doors = CognitiveTrafficManager(1, AlwaysDropAQM)
        assert doors.peek(0, 1) == []

    def test_port_rate_validated(self):
        with pytest.raises(ValueError):
            CognitiveTrafficManager(1, AlwaysDropAQM, port_rate_bps=0.0)
