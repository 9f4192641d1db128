"""Multi-bottleneck paths."""

import gc
import weakref

import numpy as np
import pytest

from repro.netfunc.aqm.base import TailDropAQM
from repro.netfunc.aqm.pcam_aqm import PCAMAQM
from repro.packet import Packet
from repro.simnet.engine import Simulator
from repro.simnet.multihop import (
    MultiBottleneckExperiment,
    build_path,
)


class TestBuildPath:
    def test_packets_traverse_all_hops(self):
        sim = Simulator()
        delivered = []
        queues = build_path(sim, [8e6, 8e6], [0.001, 0.001],
                            TailDropAQM,
                            on_delivery=delivered.append)
        packet = Packet(size_bytes=1000, created_at=0.0)
        queues[0].enqueue(packet)
        sim.run()
        assert len(delivered) == 1
        # Two 1 ms transmissions + two 1 ms propagation delays.
        assert sim.now == pytest.approx(0.004)

    def test_propagation_delay_counts(self):
        sim = Simulator()
        delivered_at = []
        queues = build_path(
            sim, [8e6], [0.010], TailDropAQM,
            on_delivery=lambda p: delivered_at.append(sim.now))
        queues[0].enqueue(Packet(size_bytes=1000, created_at=0.0))
        sim.run()
        assert delivered_at[0] == pytest.approx(0.011)

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            build_path(sim, [1e6], [0.001, 0.002], TailDropAQM)
        with pytest.raises(ValueError):
            build_path(sim, [], [], TailDropAQM)


class TestMultiBottleneckExperiment:
    def test_finished_path_is_freed_by_reference_counting(self):
        """A dropped path run leaves no cycle for the collector.

        The simulator is dropped with pending events still in its
        heap; with the cycle collector off, reference counting alone
        must free every hop's recorder.
        """
        def run_path():
            result = MultiBottleneckExperiment(duration_s=0.3).run(
                lambda: PCAMAQM(rng=np.random.default_rng(0)))
            assert result.delivered > 0
            return [weakref.ref(r) for r in result.per_hop_recorders]

        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            recorders = run_path()
            assert all(recorder() is None for recorder in recorders)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_congestion_forms_at_tight_hop(self):
        experiment = MultiBottleneckExperiment(
            load=1.3, duration_s=3.0,
            hop_rates_bps=(60e6, 40e6), seed=2)
        result = experiment.run(TailDropAQM)
        first, second = result.per_hop_recorders
        assert np.mean(second.sojourn_times) > \
            3 * np.mean(first.sojourn_times)

    def test_per_hop_aqm_bounds_end_to_end_delay(self):
        experiment = MultiBottleneckExperiment(
            load=1.3, duration_s=4.0, seed=2)
        unmanaged = experiment.run(TailDropAQM)
        counter = iter(range(100))
        managed = experiment.run(
            lambda: PCAMAQM(rng=np.random.default_rng(next(counter))))
        assert managed.mean_delay_s < 0.3 * unmanaged.mean_delay_s
        # End-to-end stays near band + propagation.
        assert managed.p95_delay_s < 0.05

    def test_deliveries_and_drops_accounted(self):
        experiment = MultiBottleneckExperiment(load=1.3,
                                               duration_s=2.0, seed=2)
        result = experiment.run(TailDropAQM)
        assert result.delivered > 1000
        assert result.dropped >= 0
        assert len(result.queues) == 2

    def test_empty_result_statistics(self):
        from repro.simnet.multihop import PathResult
        empty = PathResult(end_to_end_delays_s=np.zeros(0),
                           delivered=0, dropped=0,
                           per_hop_recorders=(), queues=())
        assert empty.mean_delay_s == 0.0
        assert empty.p95_delay_s == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiBottleneckExperiment(n_flows=0)
        with pytest.raises(ValueError):
            MultiBottleneckExperiment(hop_rates_bps=(1e6,),
                                      propagation_delays_s=(0.1, 0.2))


class TestSwitchPath:
    def test_path_of_switches_delivers_every_queued_packet(self):
        from repro.simnet.multihop import run_switch_path
        from repro.simnet.scenarios import (build_scenario_switch,
                                            default_switch_spec, scenario)

        spec = default_switch_spec()
        hops = [build_scenario_switch(spec, 11),
                build_scenario_switch(spec, 12)]
        result = run_switch_path(
            hops, scenario("flash_crowd").stream(seed=5, n_packets=1200,
                                                 chunk_size=600),
            link_delays_s=[0.002, 0.003],
            port_rate_bps=spec.port_rate_bps)
        assert result.hops[0].admitted == 1200
        assert result.hops[1].admitted == \
            result.hops[0].verdict_counts["queued"]
        assert result.delivered == result.hops[1].verdict_counts["queued"]
        assert result.end_to_end_delays_s.min() >= 0.005
        # The tail drain empties every hop's egress queues.
        assert all(hop.slice_extremes()[2] == 0 for hop in hops)
