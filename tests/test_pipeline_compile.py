"""The pipeline compiler (:mod:`repro.runtime.compile`), end to end.

Two halves.  The analysis tests pin when a processor fuses and —
more importantly — when it must refuse: anything the fused kernel
cannot provably reproduce (tracing, subclassed or duplicated
middleware, a reshaped stage walk) records a reason and leaves the
staged walk in place.  The parity tests then run staged/compiled
twin processors over the same traffic and require *every* observable
to match: verdicts, ports, counters, telemetry tables/events/gauges,
chunk and stage-run counts, per-stage energy, cache statistics and
queue backlogs.  "Fast" may never mean "slightly different".

``build_switch`` compiles every switch it assembles, so a parity test
pins its staged reference twin with :func:`staged_twin`.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.control.gate import control_switch_factory
from repro.dataplane import (
    SwitchSpec,
    Verdict,
    build_switch,
    classifier_spec_from_tree,
)
from repro.dataplane.fastpath import TelemetryTally
from repro.dataplane.parser import (
    build_ethernet_frame,
    build_ipv4_packet,
)
from repro.dataplane.pipeline import AnalogPacketProcessor
from repro.netfunc.aqm.pcam_aqm import PCAMAQM
from repro.netfunc.decision_tree import CARTTree, TreeNode
from repro.netfunc.firewall import Action, FirewallRule
from repro.observability.hub import Observability
from repro.packet import Packet
from repro.runtime import (
    BaseMiddleware,
    EnergyAttributionMiddleware,
    TelemetryMiddleware,
)
from repro.runtime.compile import compile_processor
from repro.simnet.scenarios import (
    default_switch_spec,
    run_scenario,
    traffic_classes_spec,
)


def build_spec(**overrides):
    base = dict(
        n_ports=3,
        routes=(("10.0.0.0/8", 0), ("192.168.0.0/16", 1),
                ("172.16.0.0/12", 2)),
        firewall_rules=(FirewallRule(action=Action.DENY,
                                     dst_prefix="203.0.113.0/24"),))
    base.update(overrides)
    return SwitchSpec(**base)


def classifier_spec():
    root = TreeNode(
        feature=2, threshold=11.5,
        left=TreeNode(feature=0, threshold=1100.0,
                      left=TreeNode(prediction=1),
                      right=TreeNode(prediction=2)),
        right=TreeNode(prediction=0))
    tree = CARTTree.from_root(root, n_features=3)
    return classifier_spec_from_tree(
        tree, ("size_bytes", "dst_port", "protocol"),
        class_to_port=((0, 0), (1, 1), (2, 2)))


def make_traffic(n=160, seed=23):
    rng = np.random.default_rng(seed)
    dsts = ["10.1.2.3", "10.9.9.9", "192.168.7.7", "172.16.0.5",
            "203.0.113.9", "8.8.8.8", None]
    packets = []
    for _ in range(n):
        fields = {"src_ip": "1.2.3.4",
                  "src_port": int(rng.integers(1024, 1030)),
                  "dst_port": int(rng.integers(80, 84)),
                  "protocol": int(rng.choice([6, 17]))}
        dst = dsts[int(rng.integers(len(dsts)))]
        if dst is not None:
            fields["dst_ip"] = dst
        packets.append(Packet(size_bytes=int(rng.integers(64, 1500)),
                              priority=int(rng.random() < 0.3),
                              fields=fields))
    return packets


def make_frames(n=60, seed=31):
    rng = np.random.default_rng(seed)
    dsts = ["10.1.2.3", "192.168.7.7", "203.0.113.9", "8.8.8.8"]
    frames = []
    for i in range(n):
        if i % 11 == 10:
            frames.append(b"\x00" * 9)  # truncated: parse-drop
            continue
        frames.append(build_ethernet_frame(build_ipv4_packet(
            "1.2.3.4", dsts[int(rng.integers(len(dsts)))],
            protocol=int(rng.choice([6, 17])),
            src_port=int(rng.integers(1024, 1030)),
            dst_port=int(rng.integers(80, 84)),
            payload=bytes(int(rng.integers(0, 600))))))
    return frames


class NosyMiddleware(BaseMiddleware):
    """Stands in for anything the compiler has never heard of."""


def batch_only(batch, pdps):
    """A no-op ``output_monitor``: pins a pCAM AQM to the batch kernel."""


def staged_twin(processor):
    """Pin a spec-built switch to the staged walk (the reference twin).

    An inert middleware the compiler has never heard of makes it
    refuse, so every entry point keeps the staged runtime while every
    observable stays that of the stock switch.  Each bare pCAM AQM is
    pinned to the batch kernel too, so a parity test also compares
    the folded admission lane against the kernel it folds.
    """
    processor.use_middleware(
        list(processor.runtime.middleware) + [NosyMiddleware()])
    assert not processor.compiled_plan.fused
    manager = processor.traffic_manager
    for port in range(manager.n_ports):
        aqm = manager.aqm(port)
        if getattr(aqm, "output_monitor", batch_only) is None:
            aqm.output_monitor = batch_only
    return processor


def batch_kernel_calls(aqm):
    """Count an AQM's public batch-kernel calls from now on."""
    calls = []
    inner = aqm.drop_probabilities

    def spy(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    aqm.drop_probabilities = spy
    return calls


def admit_congested_chunk(aqm, n=8):
    """One admission chunk against a deep, slow queue."""
    queue = SimpleNamespace(backlog_packets=600, backlog_bytes=720_000,
                            capacity_packets=2000,
                            service_rate_bps=40e6, last_sojourn_s=0.05)
    return aqm.on_enqueue_batch(
        [Packet(size_bytes=900) for _ in range(n)], queue, 0.02)


LEARNED_SPEC = default_switch_spec(port_rate_bps=60e6,
                                   queue_capacity=2_400, n_priorities=1)


def learned_control_switch():
    """The control gate's plant with the SPSA loop attached."""
    factory = control_switch_factory(
        learned=True, start_target_s=0.020, start_deviation_s=0.010)
    return factory(LEARNED_SPEC, 0)


class TestPlanAnalysis:
    def test_stock_switch_fuses(self):
        processor = build_switch(build_spec())
        plan = compile_processor(processor)
        assert plan.fused and plan.reasons == ()
        assert plan.stages == ("parser", "digital_mats", "egress")
        assert plan.lowering in ("numba", "python")
        assert plan.kernel is not None

    def test_classifier_switch_fuses_with_interior_stage(self):
        processor = build_switch(
            build_spec(classifier=classifier_spec()))
        plan = compile_processor(processor)
        assert plan.fused
        assert plan.stages == ("parser", "digital_mats",
                               "acam_classifier", "egress")

    def test_tracing_refuses_with_a_reason(self):
        processor = build_switch(build_spec(),
                                 observability=Observability())
        plan = compile_processor(processor)
        assert not plan.fused and plan.kernel is None
        assert any("TracingMiddleware" in reason
                   for reason in plan.reasons)

    def test_subclassed_middleware_refuses(self):
        # A subclass may override the hooks the kernel folds away, so
        # the exact-type check must reject it even though
        # isinstance() would happily pass.
        class TweakedTelemetry(TelemetryMiddleware):
            pass

        processor = build_switch(build_spec())
        processor.use_middleware([
            TweakedTelemetry(processor.telemetry, TelemetryTally),
            EnergyAttributionMiddleware(processor.ledger)])
        plan = compile_processor(processor)
        assert not plan.fused
        assert any("TweakedTelemetry" in reason
                   for reason in plan.reasons)

    def test_duplicate_middleware_refuses(self):
        processor = build_switch(build_spec())
        processor.use_middleware(
            processor.default_middleware()
            + [EnergyAttributionMiddleware(processor.ledger)])
        plan = compile_processor(processor)
        assert not plan.fused
        assert any("EnergyAttributionMiddleware" in reason
                   for reason in plan.reasons)

    def test_unknown_middleware_refuses(self):
        processor = build_switch(build_spec())
        processor.use_middleware(
            processor.default_middleware() + [NosyMiddleware()])
        plan = compile_processor(processor)
        assert not plan.fused
        assert any("NosyMiddleware" in reason for reason in plan.reasons)

    def test_stage_ahead_of_the_digital_mats_refuses(self):
        class Shaper:
            name = "shaper"

            def process_batch(self, batch, ctx):
                return batch

        processor = build_switch(build_spec())
        processor.insert_stage(Shaper(), before="digital_mats")
        plan = compile_processor(processor)
        assert not plan.fused
        assert any("digital MATs" in reason for reason in plan.reasons)


class TestRequestStickiness:
    def test_refusal_keeps_the_staged_walk_working(self):
        processor = build_switch(build_spec(),
                                 observability=Observability())
        assert not processor.compiled_plan.fused
        assert processor._fused is None
        result = processor.process(
            Packet(fields={"src_ip": "1.2.3.4", "dst_ip": "10.1.2.3",
                           "src_port": 1, "dst_port": 80,
                           "protocol": 17}), now=0.0)
        assert result.verdict is Verdict.QUEUED

    def test_middleware_swap_recompiles_both_ways(self):
        processor = build_switch(build_spec())
        assert processor.compiled_plan.fused
        processor.use_middleware(
            processor.default_middleware() + [NosyMiddleware()])
        assert not processor.compiled_plan.fused
        assert processor._fused is None
        processor.use_middleware(processor.default_middleware())
        assert processor.compiled_plan.fused
        assert processor._fused is processor.compiled_plan.kernel

    def test_stage_insertion_recompiles(self):
        class Shaper:
            name = "shaper"

            def process_batch(self, batch, ctx):
                return batch

        processor = build_switch(build_spec())
        assert processor.compiled_plan.fused
        processor.insert_stage(Shaper(), before="digital_mats")
        assert not processor.compiled_plan.fused

    def test_spec_built_switches_compile_by_default(self):
        switches = {
            "stock": build_switch(build_spec()),
            "supervised": build_switch(build_spec(
                graceful_degradation=True, supervised=True)),
            "classifier": build_switch(traffic_classes_spec()),
            "learned control": learned_control_switch(),
        }
        for name, processor in switches.items():
            plan = processor.compiled_plan
            assert plan.fused, (name, plan.reasons)
            assert processor._fused is plan.kernel, name
        traced = build_switch(build_spec(),
                              observability=Observability())
        assert not traced.compiled_plan.fused
        assert traced._fused is None
        assert any("TracingMiddleware" in reason
                   for reason in traced.compiled_plan.reasons)

    def test_hand_assembled_processor_stays_staged_until_asked(self):
        processor = AnalogPacketProcessor(n_ports=2)
        assert processor.compiled_plan is None
        processor.use_middleware(processor.default_middleware())
        assert processor.compiled_plan is None
        assert processor.request_compile().fused

    def test_traced_switch_aqms_take_the_batch_kernel(self):
        for observability in (None, Observability()):
            processor = build_switch(build_spec(),
                                     observability=observability)
            manager = processor.traffic_manager
            for port in range(manager.n_ports):
                aqm = manager.aqm(port)
                traced = aqm.pipeline.tracer is not None
                assert traced == (observability is not None)
                calls = batch_kernel_calls(aqm)
                admit_congested_chunk(aqm)
                assert aqm.evaluations == 8
                # The hub's tracer sits on the pipeline, so the fold
                # refuses and spans still see every evaluation.
                assert bool(calls) == traced, port

    def test_degrading_aqm_lacks_the_lane_and_still_fuses(self):
        processor = build_switch(build_spec(graceful_degradation=True))
        assert processor.compiled_plan.fused
        analog = processor.traffic_manager.aqm(0).analog
        # The shadow oracle watches every evaluation through the
        # analog AQM's output monitor, so it never folds.
        assert analog.output_monitor is not None
        calls = batch_kernel_calls(analog)
        admit_congested_chunk(analog)
        assert calls and analog.evaluations == 8


def full_state(processor, results):
    snapshot = processor.telemetry.snapshot()
    return {
        "verdicts": [r.verdict for r in results],
        "ports": [r.port for r in results],
        "dropped": [r.packet.dropped for r in results
                    if r.packet is not None],
        "processed": processor.processed,
        "verdict_counts": dict(processor.verdict_counts),
        "tables": snapshot["tables"],
        "events": snapshot["events"],
        "gauges": snapshot["gauges"],
        "chunks": processor.runtime.chunks,
        "stage_runs": dict(processor.runtime.stage_runs),
        "energy_by_stage": processor.energy_by_stage(),
        "energy_breakdown": processor.energy_breakdown(),
        "energy_total_j": processor.energy_total_j(),
        "cache": None if processor.flow_cache is None else
                 (processor.flow_cache.hits,
                  processor.flow_cache.misses,
                  processor.flow_cache.invalidations),
        "backlogs": [processor.traffic_manager.backlog(p)
                     for p in range(processor.traffic_manager.n_ports)],
    }


def twin_processors(fresh=None, **spec_overrides):
    """A staged reference and a compiled twin from one builder."""
    if fresh is None:
        def fresh():
            return build_switch(
                build_spec(**spec_overrides),
                aqm_factory=lambda: PCAMAQM(
                    rng=np.random.default_rng(5)))

    staged = staged_twin(fresh())
    compiled = fresh()
    assert compiled.compiled_plan.fused, compiled.compiled_plan.reasons
    return staged, compiled


class TestFusedParity:
    @pytest.mark.parametrize("chunk_size", [1, 5, 64])
    def test_batch_entry(self, chunk_size):
        staged, compiled = twin_processors()
        packets_a = make_traffic()
        packets_b = make_traffic()
        ra = staged.process_batch(packets_a, now=0.5,
                                  chunk_size=chunk_size)
        rb = compiled.process_batch(packets_b, now=0.5,
                                    chunk_size=chunk_size)
        assert full_state(staged, ra) == full_state(compiled, rb)

    def test_scalar_entry(self):
        staged, compiled = twin_processors()
        ra = [staged.process(p, now=0.5) for p in make_traffic(60)]
        rb = [compiled.process(p, now=0.5) for p in make_traffic(60)]
        assert full_state(staged, ra) == full_state(compiled, rb)

    @pytest.mark.parametrize("chunk_size", [1, 7, 64])
    def test_frames_entry_with_malformed_frames(self, chunk_size):
        staged, compiled = twin_processors()
        ra = staged.process_frames(make_frames(), now=0.5,
                                   chunk_size=chunk_size)
        rb = compiled.process_frames(make_frames(), now=0.5,
                                     chunk_size=chunk_size)
        assert full_state(staged, ra) == full_state(compiled, rb)

    def test_empty_frame_burst_still_counts_a_chunk(self):
        staged, compiled = twin_processors()
        staged.process_frames([], now=0.5)
        compiled.process_frames([], now=0.5)
        assert staged.runtime.chunks == compiled.runtime.chunks == 1
        assert full_state(staged, []) == full_state(compiled, [])

    @pytest.mark.parametrize("chunk_size", [3, 64])
    def test_classifier_switch(self, chunk_size):
        staged, compiled = twin_processors(classifier=classifier_spec())
        packets_a = make_traffic()
        packets_b = make_traffic()
        ra = staged.process_batch(packets_a, now=0.5,
                                  chunk_size=chunk_size)
        rb = compiled.process_batch(packets_b, now=0.5,
                                    chunk_size=chunk_size)
        assert full_state(staged, ra) == full_state(compiled, rb)

    def test_cacheless_switch(self):
        staged, compiled = twin_processors(flow_cache_size=0)
        ra = staged.process_batch(make_traffic(), now=0.5)
        rb = compiled.process_batch(make_traffic(), now=0.5)
        assert full_state(staged, ra) == full_state(compiled, rb)

    def test_mid_stream_rule_update_invalidates_both(self):
        staged, compiled = twin_processors()
        for processor in (staged, compiled):
            processor.process_batch(make_traffic(40), now=0.0)
            processor.add_firewall_rule(FirewallRule(
                action=Action.DENY, dst_prefix="10.0.0.0/8"))
        ra = staged.process_batch(make_traffic(40), now=1e-3)
        rb = compiled.process_batch(make_traffic(40), now=1e-3)
        assert full_state(staged, ra) == full_state(compiled, rb)
        assert staged.flow_cache.invalidations > 0

    def test_chunk_size_validation_matches_the_staged_message(self):
        _, compiled = twin_processors()
        with pytest.raises(ValueError,
                           match="chunk size must be >= 1: 0"):
            compiled.process_batch(make_traffic(4), now=0.0,
                                   chunk_size=0)

    def test_learned_control_switch(self):
        # The SPSA loop rides the supervision tick and senses the
        # verdict counters, so a chunk counted late would steer the
        # compiled twin's learner from a stale window.
        staged, compiled = twin_processors(learned_control_switch)
        reports = [run_scenario("flash_crowd", seed=0, n_packets=20_000,
                                spec=LEARNED_SPEC, collect_results=True,
                                processor_factory=lambda s, seed, p=p: p)
                   for p in (staged, compiled)]
        assert reports[0].verdicts == reports[1].verdicts
        assert reports[0].ports == reports[1].ports
        assert reports[0].energy_total_j == reports[1].energy_total_j
        assert full_state(staged, []) == full_state(compiled, [])

        def programming(processor):
            analogs = [processor.traffic_manager.aqm(port).analog
                       for port in range(LEARNED_SPEC.n_ports)]
            return [(a.target_delay_s, a.max_deviation_s)
                    for a in analogs]

        # The learner moved off its start, identically on both twins.
        assert programming(staged) == programming(compiled)
        assert programming(staged)[0] != (0.020, 0.010)
