"""SwitchFabric unit behaviour: merges, egress, metrics, lifecycle."""

import numpy as np
import pytest

from tests.test_runtime_golden import build_processor, make_traffic

from repro.dataplane.results import Verdict
from repro.fabric import SwitchFabric, ToeplitzRSS
from repro.fabric.shards import merge_telemetry
from repro.simnet.scenarios import default_switch_spec, scenario
from repro.fabric.scenario import build_fabric


def small_fabric(n_shards=2, **kwargs):
    return SwitchFabric(lambda: build_processor(4096, None), n_shards,
                        **kwargs)


def test_rejects_bad_construction():
    with pytest.raises(ValueError):
        small_fabric(0)
    with pytest.raises(ValueError):
        small_fabric(2, mode="threads")
    with pytest.raises(ValueError):
        small_fabric(2, rss=ToeplitzRSS(3))


def test_process_matches_process_batch():
    with small_fabric() as batch_fab, small_fabric() as scalar_fab:
        packets = make_traffic(n=60)
        batched = batch_fab.process_batch(packets, now=0.5)
        singles = [scalar_fab.process(p, now=0.5) for p in packets]
        assert [r.verdict for r in batched] == \
            [r.verdict for r in singles]
        assert [r.port for r in batched] == [r.port for r in singles]


def test_results_carry_original_packets_in_order():
    with small_fabric(4) as fabric:
        packets = make_traffic(n=40)
        results = fabric.process_batch(packets, now=0.5)
        assert [r.packet for r in results] == packets


def test_verdict_counts_and_processed_sum_across_shards():
    with small_fabric(4) as fabric:
        packets = make_traffic(n=120)
        results = fabric.process_batch(packets, now=0.5)
        assert fabric.processed == 120
        counts = fabric.verdict_counts
        assert sum(counts.values()) == 120
        assert counts[Verdict.QUEUED] == \
            sum(1 for r in results if r.verdict is Verdict.QUEUED)


def test_flow_cache_view_sums_shards():
    with small_fabric(2) as fabric:
        packets = make_traffic(n=240)
        fabric.process_batch(packets, now=0.5, chunk_size=64)
        view = fabric.flow_cache
        assert view.hits + view.misses > 0
        assert len(view) == view.entries > 0


def test_dequeue_round_robin_drains_all_shards():
    with small_fabric(4) as fabric:
        packets = make_traffic(n=240)
        results = fabric.process_batch(packets, now=0.5, chunk_size=64)
        queued = sum(1 for r in results if r.verdict is Verdict.QUEUED)
        drained = sum(len(fabric.drain(port, now=1.0))
                      for port in range(fabric.n_ports))
        assert drained == queued
        # Everything served: another dequeue on any port yields None.
        assert all(fabric.dequeue(port, now=1.0) is None
                   for port in range(fabric.n_ports))


def test_drain_respects_limit():
    with small_fabric(2) as fabric:
        fabric.process_batch(make_traffic(n=240), now=0.5)
        got = fabric.drain(0, now=1.0, limit=3)
        assert len(got) == 3


def test_poll_metrics_shape_and_steering():
    with small_fabric(2) as fabric:
        fabric.process_batch(make_traffic(n=240), now=0.5,
                             chunk_size=60)
        metrics = fabric.poll_metrics()
        assert metrics["generation"] == 0
        assert metrics["mode"] == "in_process"
        assert metrics["n_shards"] == 2
        assert metrics["processed"] == 240
        assert len(metrics["shards"]) == 2
        steering = metrics["steering"]
        assert steering["hashed_packets"] == 240
        assert sum(steering["per_shard_packets"]) == 240
        assert steering["imbalance"] >= 1.0
        assert steering["steering_seconds"] >= 0.0
        assert "tables" in metrics["telemetry"]
        assert metrics["energy_total_j"] > 0.0


def test_slice_extremes_takes_max_over_shards():
    with small_fabric(2) as fabric:
        fabric.process_batch(make_traffic(n=240), now=0.5)
        delay, pdp, backlog = fabric.slice_extremes()
        per_shard = [shard.extremes() for shard in fabric.shards]
        assert delay == max(e[0] for e in per_shard)
        assert pdp == max(e[1] for e in per_shard)
        assert backlog == max(e[2] for e in per_shard)
        assert backlog > 0


def test_robustness_stats_prefixes_shard_names():
    with small_fabric(2) as fabric:
        stats = fabric.robustness_stats()
        assert stats["fallback_events"] == 0
        assert stats["retries"] == 0
        assert stats["degraded_tables"] == []


def test_merge_telemetry_recomputes_hit_rate():
    merged = merge_telemetry([
        {"tables": {"t": {"lookups": 10, "hits": 5, "hit_rate": 0.5,
                          "verdicts": {"allow": 5}}},
         "gauges": {"port0.backlog": 2.0}, "events": {"drop": 1}},
        {"tables": {"t": {"lookups": 30, "hits": 5, "hit_rate": 1 / 6,
                          "verdicts": {"allow": 3, "deny": 2}}},
         "gauges": {"port0.backlog": 3.0}, "events": {"drop": 2}},
    ])
    table = merged["tables"]["t"]
    assert table["lookups"] == 40
    assert table["hits"] == 10
    assert table["hit_rate"] == pytest.approx(0.25)
    assert table["verdicts"] == {"allow": 8, "deny": 2}
    assert merged["gauges"]["port0.backlog"] == 5.0
    assert merged["events"]["drop"] == 3


def test_process_columns_equals_packet_path():
    spec = default_switch_spec()
    entry = scenario("flash_crowd")
    chunks = list(entry.stream(seed=3, n_packets=1500, chunk_size=500))
    a = build_fabric(spec, 7, 2)
    b = build_fabric(spec, 7, 2)
    try:
        for cols in chunks:
            now = float(cols.times_s[0])
            codes, ports = a.process_columns(cols, now=now,
                                             chunk_size=250)
            results = b.process_batch(cols.to_packets(), now=now,
                                      chunk_size=250)
            assert [int(c) for c in codes] == \
                [list(Verdict).index(r.verdict) for r in results]
            assert [int(p) for p in ports] == \
                [-1 if r.port is None else r.port for r in results]
        assert a.energy_total_j() == b.energy_total_j()
    finally:
        a.close()
        b.close()


def test_close_is_idempotent_and_context_manager_closes():
    fabric = small_fabric(2, mode="multiprocessing")
    with fabric:
        fabric.process_batch(make_traffic(n=30), now=0.5)
    fabric.close()  # second close: no-op


def test_multiprocessing_workers_survive_many_chunks():
    with small_fabric(2, mode="multiprocessing") as fabric:
        for _ in range(5):
            fabric.process_batch(make_traffic(n=60), now=0.5,
                                 chunk_size=16)
        assert fabric.processed == 300


def test_fabric_runs_scenario_end_to_end():
    from repro.fabric import fabric_scenario_factory
    from repro.simnet.scenarios import run_scenario

    report = run_scenario(
        "flash_crowd", seed=1, n_packets=2000, chunk_size=512,
        admission_chunk=128, observe=True,
        processor_factory=fabric_scenario_factory(2))
    assert sum(report.verdict_counts.values()) == 2000
    assert report.energy_total_j > 0
    assert report.metrics is not None
    assert report.metrics["n_shards"] == 2
    assert report.metrics["steering"]["hashed_packets"] == 2000
    assert len(report.windows) == 20


def test_switch_path_of_fabrics_delivers():
    from repro.simnet.multihop import run_switch_path

    spec = default_switch_spec()
    entry = scenario("flash_crowd")
    hops = [build_fabric(spec, 11, 2), build_fabric(spec, 12, 1)]
    try:
        result = run_switch_path(
            hops, entry.stream(seed=5, n_packets=1200, chunk_size=600),
            link_delays_s=[0.002, 0.002],
            port_rate_bps=spec.port_rate_bps)
        assert result.hops[0].admitted == 1200
        queued_out_of_hop0 = result.hops[0].verdict_counts["queued"]
        assert result.hops[1].admitted == queued_out_of_hop0
        assert result.delivered == \
            result.hops[1].verdict_counts["queued"]
        assert result.mean_delay_s > 0.004  # two links of 2 ms
        assert result.energy_total_j == pytest.approx(
            sum(h.energy_total_j for h in result.hops))
    finally:
        for hop in hops:
            hop.close()


def degrade(aqm):
    """Fault the analog AQM and evaluate it until its monitor trips."""
    from repro.robustness import FaultInjector, StuckAtFault

    analog = aqm.analog
    FaultInjector(StuckAtFault(state="lrs"), cell_fraction=1.0,
                  rng=np.random.default_rng(3)).inject_aqm(analog)
    features = {name: np.full(2, analog.target_delay_s
                              if name in ("sojourn_time", "buffer_size")
                              else 0.0)
                for name in analog.pipeline.stage_names}
    for _ in range(aqm.check_interval * aqm.trip_after):
        analog.drop_probabilities(features)
    assert aqm.degraded


def test_one_shard_fabric_reports_the_switch_port_summary():
    from repro.simnet.scenarios import build_scenario_switch, drain_egress

    spec = default_switch_spec()
    switch = build_scenario_switch(spec, 7)
    fabric = build_fabric(spec, 7, 1)
    # Port 1 stuck-at faulted and degraded in both; the supervision
    # tick's retries cannot repair stuck cells.
    for processor in (switch, fabric.shards[0].processor):
        degrade(processor.traffic_manager.aqm(1))
    credits = [[0.0] * spec.n_ports for _ in range(2)]
    t_prev = 0.0
    degraded = set()
    try:
        for cols in scenario("flash_crowd").stream(
                seed=7, n_packets=20_000, chunk_size=1000):
            for start in range(0, 1000, 250):
                t_now = float(cols.times_s[start])
                for processor, credit in zip((switch, fabric), credits):
                    drain_egress(processor, credit, t_prev, t_now,
                                 spec.port_rate_bps)
                    packets = cols.to_packets()[start:start + 250]
                    processor.process_batch(packets, now=t_now,
                                            chunk_size=len(packets))
                t_prev = t_now
                assert switch.slice_extremes() == fabric.slice_extremes()
                stats = switch.robustness_stats()
                assert fabric.robustness_stats() == {
                    **stats, "degraded_tables": [
                        f"shard0.{table}"
                        for table in stats["degraded_tables"]]}
                degraded.update(stats["degraded_tables"])
        assert degraded == {"port1.pcam_aqm"}
        assert stats["fallback_events"] > 0 and stats["retries"] > 0
    finally:
        fabric.close()


# ----------------------------------------------------------------------
# Multiprocessing egress: look-ahead runs are exact, failures are loud
# ----------------------------------------------------------------------
def _degraded_port_switch(spec, seed):
    """The scenario switch with port 1 on its CoDel fallback."""
    from repro.simnet.scenarios import build_scenario_switch

    switch = build_scenario_switch(spec, seed)
    degrade(switch.traffic_manager.aqm(1))
    return switch


def _recorder(served):
    """A ``drain_egress`` sink recording each served packet."""
    def sink(packet, now):
        served.append((packet.packet_id, packet.sojourn_time))
    return sink


@pytest.mark.parametrize("name", ["cache_churn", "flash_crowd"])
def test_multiprocessing_egress_matches_in_process(name):
    import copy
    from functools import partial
    from repro.simnet.scenarios import drain_egress

    # Slow ports congest, so port 1's CoDel fallback drops at the head.
    spec = default_switch_spec(port_rate_bps=40e6)
    factory = partial(_degraded_port_switch, spec, 7)
    fabrics = [SwitchFabric(factory, 2, mode="in_process"),
               SwitchFabric(factory, 2, mode="multiprocessing")]
    served = [[], []]
    credits = [[0.0] * spec.n_ports for _ in fabrics]
    t_prev = 0.0
    try:
        for index, cols in enumerate(scenario(name).stream(
                seed=7, n_packets=6000, chunk_size=250)):
            t_now = float(cols.times_s[0])
            # One packet list for both: a deep copy keeps packet ids.
            packets = cols.to_packets()
            for fabric, credit, out, batch in zip(
                    fabrics, credits, served,
                    (copy.deepcopy(packets), packets)):
                drain_egress(fabric, credit, t_prev, t_now,
                             spec.port_rate_bps, sink=_recorder(out))
                if index % 3 == 1:
                    # A second dequeue at a later ``now`` mid-run.
                    packet = fabric.dequeue(index % fabric.n_ports,
                                            t_now + 1e-4)
                    if packet is not None:
                        out.append((packet.packet_id,
                                    packet.sojourn_time))
                fabric.process_batch(batch, now=t_now,
                                     chunk_size=len(batch))
                if index % 4 == 3:
                    k = index // 4
                    fabric.controller.add_route(
                        f"198.18.{k % 256}.0/24", k % fabric.n_ports
                    ).commit()
            t_prev = t_now
            assert served[0] == served[1]
            assert fabrics[0].slice_extremes() == \
                fabrics[1].slice_extremes()
            assert fabrics[0].verdict_counts == fabrics[1].verdict_counts
            ledgers = [f.energy_ledger() for f in fabrics]
            assert dict(ledgers[0]) == dict(ledgers[1])
            assert ledgers[0].events == ledgers[1].events
            if index % 5 == 0:
                polls = [f.poll_metrics() for f in fabrics]
                for key in ("generation", "processed", "telemetry",
                            "energy_total_j", "shards"):
                    assert polls[0][key] == polls[1][key]
        for fabric, credit, out in zip(fabrics, credits, served):
            drain_egress(fabric, credit, t_prev, t_prev + 0.5,
                         spec.port_rate_bps, sink=_recorder(out))
        assert served[0] == served[1]
        assert len(served[0]) > 1000
        assert fabrics[0].robustness_stats()["degraded_tables"] == [
            "shard0.port1.pcam_aqm", "shard1.port1.pcam_aqm"]
        # The CoDel fallback dropped at the head: port 1 served fewer
        # packets than it queued, with nothing left behind.
        stats = [shard.processor.traffic_manager.stats[1]
                 for shard in fabrics[0].shards]
        assert sum(s.enqueued - s.dequeued for s in stats) > 0
        assert all(fabric.dequeue(port, t_prev + 0.5) is None
                   for fabric in fabrics
                   for port in range(fabric.n_ports))
    finally:
        for fabric in fabrics:
            fabric.close()


def _count_peeks(fabric):
    """Wrap every worker pipe's ``send`` to count ``peek`` messages."""
    peeks = []
    for shard in fabric.shards:
        send = shard._conn.send

        def counting(message, send=send):
            if message[0] == "peek":
                peeks.append(message[2])
            return send(message)

        shard._conn.send = counting
    return peeks


def test_full_drain_costs_a_few_peeks_per_shard_not_one_per_packet():
    import math

    with small_fabric(2, mode="multiprocessing") as fabric:
        peeks = _count_peeks(fabric)
        for now in (0.5, 1.5):
            fabric.process_batch(make_traffic(n=240), now=now)
            peeks.clear()
            drained = sum(len(fabric.drain(port, now=now + 0.5))
                          for port in range(fabric.n_ports))
            assert drained > 100
            if now == 0.5:
                # Cold: runs double from one packet.
                assert len(peeks) <= fabric.n_shards * fabric.n_ports \
                    * (math.ceil(math.log2(drained)) + 2)
            else:
                # Warm: each run starts from what the port served last.
                assert len(peeks) <= 2 * fabric.n_shards * fabric.n_ports


def _shm_segments():
    import os
    return {name for name in os.listdir("/dev/shm")
            if name.startswith("psm_")}


def _assert_failed_loudly(fabric, before, excinfo, needle):
    import time
    from repro.fabric import ShardWorkerError

    assert "Traceback (most recent call last)" in \
        excinfo.value.worker_traceback
    assert needle in excinfo.value.worker_traceback
    assert needle in str(excinfo.value)
    # Every later call on the fabric raises instead of hanging.
    cols = next(scenario("cache_churn").stream(seed=1, n_packets=64,
                                               chunk_size=64))
    for call in (lambda: fabric.process_columns(cols, now=9.0),
                 lambda: fabric.dequeue(0, 9.0),
                 fabric.slice_extremes,
                 fabric.poll_metrics,
                 lambda: fabric.controller.commit()):
        with pytest.raises(ShardWorkerError):
            call()
    started = time.perf_counter()
    fabric.close()
    assert time.perf_counter() - started < 5.0
    assert all(not shard._process.is_alive() for shard in fabric.shards)
    assert _shm_segments() <= before


def test_worker_error_at_flip_carries_its_traceback():
    from repro.fabric import ShardWorkerError

    before = _shm_segments()
    fabric = build_fabric(default_switch_spec(), 7, 2,
                          mode="multiprocessing")
    for cols in scenario("cache_churn").stream(seed=1, n_packets=1000,
                                               chunk_size=250):
        fabric.process_columns(cols, now=float(cols.times_s[0]))
    with pytest.raises(ShardWorkerError) as excinfo:
        fabric.controller.add_route("198.18.0.0/24", 99).commit()
    _assert_failed_loudly(fabric, before, excinfo, "port 99 out of range")


def test_egress_ack_mismatch_fails_loudly():
    from repro.fabric import ShardWorkerError

    before = _shm_segments()
    fabric = build_fabric(default_switch_spec(), 7, 2,
                          mode="multiprocessing")
    cols = next(scenario("cache_churn").stream(seed=1, n_packets=1000,
                                               chunk_size=1000))
    fabric.process_columns(cols, now=0.0)
    served = fabric.drain(0, now=0.5, limit=5)
    assert len(served) == 5
    # Claim a packet the worker will not pop: its replay must refuse.
    shard = next(s for s in fabric.shards if s._acks)
    shard._acks[-1][2][-1] += 10**9
    with pytest.raises(ShardWorkerError) as excinfo:
        fabric.slice_extremes()
    _assert_failed_loudly(fabric, before, excinfo, "egress ack mismatch")


def test_worker_error_mid_chunk_unlinks_every_segment():
    from functools import partial
    from repro.fabric import ShardWorkerError
    from repro.simnet.scenarios import build_scenario_switch

    before = _shm_segments()
    fabric = SwitchFabric(partial(_exploding_switch, build_scenario_switch),
                          2, mode="multiprocessing")
    cols = next(scenario("cache_churn").stream(seed=1, n_packets=500,
                                               chunk_size=500))
    with pytest.raises(ShardWorkerError) as excinfo:
        fabric.process_columns(cols, now=0.0)
    _assert_failed_loudly(fabric, before, excinfo, "shard exploded")


def _exploding_switch(build):
    switch = build(default_switch_spec(), 7)

    def explode(*args, **kwargs):
        raise RuntimeError("shard exploded")

    switch.process_batch = explode
    return switch
