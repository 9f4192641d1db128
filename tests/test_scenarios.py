"""Behavioural regression tests for the traffic scenario harness.

Tier-1 versions of the matrix gates: each named scenario runs once
(small packet counts, cached per module) through a freshly built
switch, and the assertions pin *behaviour* — AQM drop probability
rising under flood while queue delay stays bounded, flow-cache hit
rate collapsing under churn and recovering after, the degradation
supervisor staying quiet on benign traffic.  The full-size matrix
with published artifacts lives in ``benchmarks/test_scenario_matrix.py``.
"""

import functools

import numpy as np
import pytest

from repro.simnet.scenarios import (
    ScenarioReport,
    default_switch_spec,
    iter_scenarios,
    run_scenario,
    scenario,
    scenario_names,
    traffic_classes_expected,
    traffic_classes_spec,
)
from repro.simnet.workloads import ChunkColumns

#: Small-n sizes calibrated so every behavioural signature already
#: shows (floods need a longer window to build byte backlog).
TIER1_PACKETS = {
    "elephants_mice": 30_000,
    "diurnal": 60_000,
    "flash_crowd": 60_000,
    "syn_flood": 60_000,
    "amplification_flood": 60_000,
    "scan_sweep": 30_000,
    "cache_churn": 30_000,
    "traffic_classes": 20_000,
}


@functools.lru_cache(maxsize=None)
def report(name: str) -> ScenarioReport:
    return run_scenario(name, seed=0, n_packets=TIER1_PACKETS[name])


def drop_series(r: ScenarioReport) -> list[float]:
    return r.window_series("aqm_drop_rate")


class TestRegistry:
    def test_catalogue_covers_required_scenarios(self):
        names = scenario_names()
        assert len(names) >= 6
        for required in ("elephants_mice", "diurnal", "flash_crowd",
                         "syn_flood", "amplification_flood",
                         "scan_sweep", "cache_churn"):
            assert required in names

    def test_every_scenario_documents_invariants(self):
        for entry in iter_scenarios():
            assert entry.description
            assert len(entry.invariants) >= 1
            assert entry.default_packets >= 100_000

    def test_unknown_scenario_names_known_ones(self):
        with pytest.raises(KeyError, match="elephants_mice"):
            scenario("no_such_scenario")

    def test_stream_respects_packet_budget(self):
        entry = scenario("diurnal")
        chunks = list(entry.stream(seed=1, n_packets=10_000,
                                   chunk_size=4096))
        assert [len(c) for c in chunks] == [4096, 4096, 1808]

    def test_stream_memory_is_bounded_by_chunk_size(self):
        entry = scenario("elephants_mice")
        for chunk in entry.stream(seed=1, n_packets=50_000,
                                  chunk_size=2048):
            assert len(chunk) <= 2048
            assert chunk.nbytes < 2048 * 80

    def test_bad_arguments_rejected(self):
        entry = scenario("diurnal")
        with pytest.raises(ValueError):
            list(entry.stream(chunk_size=0))
        with pytest.raises(ValueError):
            entry.columns(0, -1, 10, 100)
        with pytest.raises(ValueError):
            run_scenario("diurnal", n_packets=0)
        with pytest.raises(ValueError):
            run_scenario("diurnal", n_packets=100, n_windows=0)


class TestElephantsMice:
    def test_heavy_tail_carries_most_bytes(self):
        entry = scenario("elephants_mice")
        cols = ChunkColumns.concat(entry.stream(seed=0,
                                                n_packets=30_000))
        flows = np.asarray(cols.flow_ids)
        sizes = np.asarray(cols.sizes_bytes)
        per_flow = np.bincount(flows, weights=sizes)
        ranked = np.sort(per_flow)[::-1]
        top = max(1, int(0.02 * np.count_nonzero(per_flow)))
        share = ranked[:top].sum() / ranked.sum()
        assert share > 0.3

    def test_benign_baseline_rides_through_cleanly(self):
        r = report("elephants_mice")
        assert r.verdict_counts["dropped_aqm"] == 0
        assert r.verdict_counts["dropped_overflow"] == 0
        assert r.degraded_tables == ()
        assert r.fallback_events == 0

    def test_cache_warms_on_the_heavy_tail(self):
        r = report("elephants_mice")
        late = [w.cache_hit_rate for w in r.windows[-5:]]
        assert min(late) > 0.85


class TestDiurnal:
    def test_queue_pressure_follows_the_load_curve(self):
        r = report("diurnal")
        meta = scenario("diurnal").meta
        peak = [w.max_backlog_pkts
                for w in r.windows_in(meta["peak_window"])]
        trough = [w.max_backlog_pkts
                  for w in r.windows_in(meta["trough_window"])]
        assert np.mean(peak) > 1.5 * np.mean(trough)

    def test_no_degradation_and_delay_in_envelope(self):
        r = report("diurnal")
        assert r.degraded_tables == ()
        assert r.fallback_events == 0
        assert r.max_delay_ewma_s < 0.030


class TestFlashCrowd:
    def test_aqm_drop_probability_rises_during_surge(self):
        r = report("flash_crowd")
        window = scenario("flash_crowd").meta["flood_window"]
        surge = [w.aqm_drop_rate for w in r.windows_in(window)]
        before = drop_series(r)[:int(window[0] * len(r.windows))]
        assert max(surge) > 0.2
        assert float(np.mean(surge)) > 0.1
        assert max(before) < 0.01

    def test_queue_delay_stays_bounded_through_surge(self):
        r = report("flash_crowd")
        assert r.max_delay_ewma_s < 0.30
        assert r.verdict_counts["dropped_overflow"] == 0

    def test_recovers_after_surge(self):
        r = report("flash_crowd")
        assert max(drop_series(r)[-3:]) < 0.01
        assert min(w.cache_hit_rate for w in r.windows[-3:]) > 0.85

    def test_benign_surge_never_trips_degradation(self):
        r = report("flash_crowd")
        assert r.degraded_tables == ()
        assert r.fallback_events == 0


class TestSynFlood:
    def test_drop_response_engages_during_flood(self):
        r = report("syn_flood")
        drops = (r.verdict_counts["dropped_aqm"]
                 + r.verdict_counts["dropped_overflow"])
        assert drops > 0.01 * r.n_packets
        assert r.max_pdp > 0.3

    def test_queue_delay_stays_bounded(self):
        r = report("syn_flood")
        assert r.max_delay_ewma_s < 0.10

    def test_spoofed_sources_churn_the_cache(self):
        r = report("syn_flood")
        window = scenario("syn_flood").meta["flood_window"]
        flood = [w.cache_hit_rate for w in r.windows_in(window)]
        # skip the leading transition window: it mixes pre-flood flows
        assert float(np.mean(flood[1:])) < 0.10
        assert min(w.cache_hit_rate for w in r.windows[-3:]) > 0.85


class TestAmplificationFlood:
    def test_aqm_saturates_under_byte_overload(self):
        r = report("amplification_flood")
        window = scenario("amplification_flood").meta["flood_window"]
        flood = [w.aqm_drop_rate for w in r.windows_in(window)]
        assert float(np.mean(flood)) > 0.3
        assert r.max_pdp > 0.9

    def test_queue_delay_stays_bounded(self):
        r = report("amplification_flood")
        assert r.max_delay_ewma_s < 0.50
        assert max(drop_series(r)[-2:]) < 0.05


class TestScanSweep:
    def test_probes_die_as_no_route_drops(self):
        r = report("scan_sweep")
        share = r.verdict_counts["dropped_no_route"] / r.n_packets
        assert share > scenario("scan_sweep").meta["min_no_route_share"]

    def test_unique_probes_defeat_the_flow_cache(self):
        r = report("scan_sweep")
        assert r.cache_hit_rate < 0.2

    def test_scan_is_benign_to_aqm_and_supervisor(self):
        r = report("scan_sweep")
        assert r.verdict_counts["dropped_aqm"] == 0
        assert r.degraded_tables == ()
        assert r.fallback_events == 0


class TestCacheChurn:
    def test_hit_rate_collapses_under_churn_and_recovers(self):
        r = report("cache_churn")
        window = scenario("cache_churn").meta["churn_window"]
        churn = [w.cache_hit_rate for w in r.windows_in(window)]
        warm = [w.cache_hit_rate for w in r.windows[1:5]]
        after = [w.cache_hit_rate for w in r.windows[-4:]]
        assert max(churn) < 0.05
        assert min(warm) > 0.9
        assert min(after) > 0.9

    def test_churn_never_causes_drops(self):
        r = report("cache_churn")
        assert r.verdict_counts == {
            "queued": r.n_packets, "dropped_parse": 0,
            "dropped_acl": 0, "dropped_no_route": 0,
            "dropped_aqm": 0, "dropped_overflow": 0}


@functools.lru_cache(maxsize=None)
def classified_report() -> ScenarioReport:
    return run_scenario("traffic_classes", seed=0,
                        n_packets=TIER1_PACKETS["traffic_classes"],
                        spec=traffic_classes_spec(),
                        collect_results=True)


class TestTrafficClasses:
    def test_classifier_steers_every_class_to_its_port(self):
        r = classified_report()
        expected = traffic_classes_expected(np.arange(r.n_packets))
        queued = 0
        for index, (verdict, port) in enumerate(zip(r.verdicts,
                                                    r.ports)):
            if verdict == "queued":
                assert port == expected[index]
                queued += 1
        assert queued == r.n_packets

    def test_all_three_ports_carry_traffic(self):
        r = classified_report()
        counts = np.bincount([p for p in r.ports if p is not None],
                             minlength=3)
        # interleaved classes: an even three-way split
        assert counts.min() > 0.3 * r.n_packets

    def test_steering_never_trips_degradation(self):
        r = classified_report()
        assert r.degraded_tables == ()
        assert r.fallback_events == 0
        assert r.verdict_counts["dropped_aqm"] == 0
        assert r.verdict_counts["dropped_overflow"] == 0

    def test_classifier_energy_lands_in_the_breakdown(self):
        r = classified_report()
        assert r.energy_breakdown.get("acam.search", 0.0) > 0.0

    def test_without_classifier_ports_follow_routing_not_class(self):
        r = run_scenario("traffic_classes", seed=0, n_packets=3000,
                         spec=default_switch_spec(),
                         collect_results=True)
        expected = traffic_classes_expected(np.arange(r.n_packets))
        steered = sum(1 for i, p in enumerate(r.ports)
                      if p == expected[i])
        # destination-hash routing only agrees by chance (~1/3)
        assert steered < 0.6 * r.n_packets


class TestRunner:
    def test_observability_snapshot_lands_in_report(self):
        r = run_scenario("elephants_mice", seed=3, n_packets=4000,
                         observe=True)
        assert r.metrics is not None
        assert isinstance(r.metrics, dict)

    def test_observe_refuses_a_processor_without_poll_metrics(self):
        from repro.control.gate import control_switch_factory

        with pytest.raises(ValueError, match="AnalogPacketProcessor"):
            run_scenario("flash_crowd", n_packets=2000, observe=True,
                         processor_factory=control_switch_factory(
                             learned=False))

    def test_collect_results_keeps_per_packet_sequences(self):
        r = run_scenario("scan_sweep", seed=3, n_packets=4000,
                         collect_results=True)
        assert len(r.verdicts) == 4000
        assert len(r.ports) == 4000
        assert "dropped_no_route" in r.verdicts

    def test_report_serialises_to_json(self):
        import json
        r = report("cache_churn")
        payload = json.loads(json.dumps(r.to_json()))
        assert payload["scenario"] == "cache_churn"
        assert len(payload["windows"]) == len(r.windows)
        assert payload["energy_total_j"] > 0

    def test_windows_partition_the_stream(self):
        r = report("diurnal")
        assert sum(w.offered for w in r.windows) == r.n_packets
        assert [w.index for w in r.windows] == list(range(len(r.windows)))

    def test_custom_spec_is_honoured(self):
        spec = default_switch_spec(flow_cache_size=8,
                                   supervised=False,
                                   graceful_degradation=False)
        r = run_scenario("cache_churn", seed=0, n_packets=4000,
                         spec=spec)
        assert r.degraded_tables == ()
        # an 8-entry cache cannot hold the 64 warm flows
        assert r.cache_hit_rate < 0.5
