"""The event-driven bottleneck queue."""

import gc
import itertools
import weakref

import numpy as np
import pytest

from repro.netfunc.aqm.base import AQMAlgorithm
from repro.netfunc.aqm.pcam_aqm import PCAMAQM
from repro.packet import Packet
from repro.simnet.engine import Simulator
from repro.simnet.flows import (
    OnOffFlowGenerator,
    ParetoBurstGenerator,
    PoissonFlowGenerator,
)
from repro.simnet.queue_sim import BottleneckQueue
from repro.simnet.responsive import AIMDFlowGenerator, FeedbackRouter
from repro.simnet.trace import (
    ArrivalTrace,
    TraceRecorder,
    TraceReplayGenerator,
)


def make_queue(sim=None, rate_bps=8e6, **kwargs):
    sim = sim or Simulator()
    return sim, BottleneckQueue(sim, service_rate_bps=rate_bps, **kwargs)


def test_single_packet_served_after_transmission_time():
    sim, queue = make_queue(rate_bps=8e6)
    queue.enqueue(Packet(size_bytes=1000))  # 1 ms at 8 Mbps
    sim.run()
    assert queue.recorder.delivered == 1
    assert queue.recorder.departure_times[0] == pytest.approx(1e-3)


def test_fifo_service_and_sojourn_accumulation():
    sim, queue = make_queue(rate_bps=8e6)
    queue.enqueue(Packet(size_bytes=1000))
    queue.enqueue(Packet(size_bytes=1000))
    sim.run()
    sojourns = queue.recorder.sojourn_times
    assert sojourns[0] == pytest.approx(1e-3)
    assert sojourns[1] == pytest.approx(2e-3)


def test_overflow_tail_drop():
    sim, queue = make_queue(capacity_packets=2)
    for _ in range(5):
        queue.enqueue(Packet())
    # One packet is in service, two wait (the capacity), two overflow.
    assert queue.overflow_drops == 2
    assert queue.admitted == 3


def test_aqm_enqueue_drop_counted():
    class DropEverything(AQMAlgorithm):
        def on_enqueue(self, packet, queue, now):
            return True

    sim, queue = make_queue(aqm=DropEverything())
    queue.enqueue(Packet())
    assert queue.aqm_drops == 1
    assert queue.recorder.dropped == 1
    assert queue.backlog_packets == 0


def test_aqm_dequeue_drop_skips_packet():
    class DropFirstAtHead(AQMAlgorithm):
        def __init__(self):
            self.count = 0

        def on_dequeue(self, packet, queue, now, sojourn_s):
            self.count += 1
            return self.count == 1

    sim, queue = make_queue(aqm=DropFirstAtHead())
    queue.enqueue(Packet(size_bytes=1000))
    queue.enqueue(Packet(size_bytes=1000))
    sim.run()
    assert queue.recorder.delivered == 1
    assert queue.aqm_drops == 1


def test_backlog_bytes_tracked():
    sim, queue = make_queue()
    queue.enqueue(Packet(size_bytes=700))
    queue.enqueue(Packet(size_bytes=300))
    # First packet entered service immediately; the second waits.
    assert queue.backlog_bytes == 300
    assert queue.backlog_packets == 1


def test_last_sojourn_visible_to_aqm():
    observed = []

    class Peek(AQMAlgorithm):
        def on_enqueue(self, packet, queue, now):
            observed.append(queue.last_sojourn_s)
            return False

    sim = Simulator()
    queue = BottleneckQueue(sim, service_rate_bps=8e6, aqm=Peek())
    queue.enqueue(Packet(size_bytes=1000))
    sim.run_until(0.002)
    queue.enqueue(Packet(size_bytes=1000))
    assert observed[0] == 0.0
    assert observed[1] == pytest.approx(1e-3)


def test_periodic_queue_sampling():
    sim = Simulator()
    queue = BottleneckQueue(sim, service_rate_bps=8e3,
                            sample_interval_s=0.01)
    queue.enqueue(Packet(size_bytes=1000))  # 1 s service time
    sim.run_until(0.05)
    assert len(queue.recorder.sample_times) == 5


def test_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        BottleneckQueue(sim, service_rate_bps=0.0)
    with pytest.raises(ValueError):
        BottleneckQueue(sim, service_rate_bps=1e6, capacity_packets=0)


def attach_replay(sim, queue, rng):
    times = np.sort(rng.uniform(0.0, 0.3, 2000))
    TraceReplayGenerator(ArrivalTrace(
        times_s=times, sizes_bytes=np.full(times.size, 1000),
        flow_ids=np.zeros(times.size, dtype=int),
        priorities=np.zeros(times.size, dtype=int))).attach(
            sim, TraceRecorder(sim, queue.enqueue))


AIMD_FLOW_IDS = itertools.count()


def attach_aimd(sim, queue, rng):
    """An AIMD sender, fed back through a router the queue owns."""
    router = getattr(queue.delivery_listener, "__self__", None)
    if router is None:
        router = FeedbackRouter()
        queue.delivery_listener = router.on_delivery
        queue.drop_listener = router.on_drop
    AIMDFlowGenerator(router, rtt_s=0.02, flow_id=next(AIMD_FLOW_IDS),
                      rng=rng).attach(sim, queue.enqueue)


SOURCES = {
    "poisson": lambda sim, queue, rng: PoissonFlowGenerator(
        rate_pps=3000, rng=rng).attach(sim, queue.enqueue),
    "on_off": lambda sim, queue, rng: OnOffFlowGenerator(
        peak_rate_pps=9000, mean_on_s=0.02, mean_off_s=0.02,
        rng=rng).attach(sim, queue.enqueue),
    "pareto_burst": lambda sim, queue, rng: ParetoBurstGenerator(
        burst_rate_hz=150, mean_burst_packets=20,
        rng=rng).attach(sim, queue.enqueue),
    "trace_replay": attach_replay,
    "aimd": attach_aimd,
}


@pytest.mark.parametrize("attach", SOURCES.values(), ids=SOURCES.keys())
def test_finished_plant_is_freed_by_reference_counting(attach):
    """A dropped Figure-8 plant leaves no cycle for the collector.

    Simulator, pCAM AQM, sampled queue and sources are dropped with
    pending events still in the heap; with the cycle collector off,
    reference counting alone must free the recorder.
    """
    def run_plant():
        sim = Simulator()
        queue = BottleneckQueue(
            sim, service_rate_bps=40e6, capacity_packets=1500,
            aqm=PCAMAQM(rng=np.random.default_rng(0)),
            sample_interval_s=0.01)
        for index in range(3):
            attach(sim, queue, np.random.default_rng(index))
        sim.run_until(0.2)
        assert sim.pending > 0 and queue.recorder.delivered > 0
        return weakref.ref(queue.recorder)

    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        recorder = run_plant()
        assert recorder() is None
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
