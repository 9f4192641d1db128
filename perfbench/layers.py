"""Per-layer metrics from a traced run's span aggregates.

Every span name maps to one layer of ``src/repro``.  Times are given
per packet *offered to the system* over the traced episodes, so the
layers' self times add up (with ``unattributed_share``) to the traced
wall time per packet.  ``*_self_*`` metrics are a span's time minus
the spans nested in it; the others are whole-call times.  A layer the
workload never calls reports 0.

Counts read off the built objects (``netfunc.aqm.evaluations``,
``control.loop.decisions``, ...) are exact per-episode values; every
episode of a run must repeat them.
"""

from __future__ import annotations

from tracer import ROOT

__all__ = ["LAYER_OF", "PER_LAYER", "layer_self_ns", "per_layer"]

#: span name -> layer (the ``src/repro`` module it measures).
LAYER_OF = {
    ROOT: "unattributed",
    "simnet.engine": "simnet.engine",
    "simnet.queue_sim": "simnet.queue_sim",
    "netfunc.aqm.admit": "netfunc.aqm",
    "netfunc.aqm.pdp": "netfunc.aqm",
    "netfunc.aqm.dequeue": "netfunc.aqm",
    "core.pcam_pipeline": "core.pcam_pipeline",
    "robustness.degradation.admit": "robustness.degradation",
    "robustness.degradation.dequeue": "robustness.degradation",
    "robustness.degradation.monitor": "robustness.degradation",
    "dataplane.pipeline": "dataplane.pipeline",
    "dataplane.digital_mats": "dataplane.stages",
    "dataplane.egress": "dataplane.stages",
    "tcam": "tcam",
    "acam": "acam",
    "acam.classifier": "acam",
    "dataplane.traffic_manager.enqueue": "dataplane.traffic_manager",
    "dataplane.traffic_manager.dequeue": "dataplane.traffic_manager",
    "control.cognitive": "control",
    "control.loop": "control",
    "control.sensor": "control",
    "control.learning": "control",
    "control.gate": "control",
    "fabric.fabric.admit": "fabric.fabric",
    "fabric.fabric.dequeue": "fabric.fabric",
    "fabric.fabric.extremes": "fabric.fabric",
    "fabric.rss": "fabric.rss",
    "fabric.workers.scatter": "fabric.workers",
    "fabric.workers.gather": "fabric.workers",
    "fabric.workers.dequeue": "fabric.workers",
    "fabric.workers.extremes": "fabric.workers",
    "fabric.controller": "fabric.controller",
}

#: Every per-layer metric with its unit, in report order.
PER_LAYER = {
    "simnet.engine.self_ns_per_pkt": "ns/pkt",
    "simnet.engine.events_per_pkt": "events/pkt",
    "simnet.queue_sim.enqueue_self_ns_per_pkt": "ns/pkt",
    "netfunc.aqm.pdp_ns_per_pkt": "ns/pkt",
    "netfunc.aqm.admit_self_ns_per_pkt": "ns/pkt",
    "netfunc.aqm.dequeue_ns_per_pkt": "ns/pkt",
    "netfunc.aqm.pkts_per_pdp_call": "pkt/call",
    "netfunc.aqm.folded_share": "share",
    "netfunc.aqm.evaluations": "count",
    "core.pcam_pipeline.eval_ns_per_pkt": "ns/pkt",
    "robustness.degradation.self_ns_per_pkt": "ns/pkt",
    "robustness.degradation.fallback_events": "count",
    "dataplane.pipeline.self_ns_per_pkt": "ns/pkt",
    "dataplane.digital_mats.ns_per_pkt": "ns/pkt",
    "dataplane.flow_cache.hit_ratio": "share",
    "tcam.rows_searched_per_pkt": "rows/pkt",
    "acam.classify_ns_per_pkt": "ns/pkt",
    "acam.deterministic_share": "share",
    "dataplane.egress.self_ns_per_pkt": "ns/pkt",
    "dataplane.traffic_manager.enqueue_self_ns_per_pkt": "ns/pkt",
    "dataplane.traffic_manager.dequeue_ns_per_pkt": "ns/pkt",
    "dataplane.traffic_manager.empty_poll_ratio": "share",
    "control.loop.step_ns_per_pkt": "ns/pkt",
    "control.learning.decide_us_per_decision": "us",
    "control.gate.apply_us_per_write": "us",
    "control.cognitive.supervise_us_per_tick": "us",
    "control.loop.decisions": "count",
    "control.loop.applied": "count",
    "control.gate.rejections": "count",
    "fabric.rss.ns_per_pkt": "ns/pkt",
    "fabric.rss.imbalance": "ratio",
    "fabric.scatter_ns_per_pkt": "ns/pkt",
    "fabric.gather_wait_ns_per_pkt": "ns/pkt",
    "fabric.shm_segments_per_slice": "count/slice",
    "fabric.dequeue_ns_per_pkt": "ns/pkt",
    "fabric.dequeue_round_trips_per_pkt": "count/pkt",
    "fabric.extremes_ns_per_pkt": "ns/pkt",
    "fabric.commit_us_per_commit": "us",
    "fabric.commits": "count",
    "unattributed_share": "share",
}


def layer_self_ns(tracer) -> dict[str, int]:
    """Self time per layer (the root span's is ``unattributed``)."""
    totals: dict[str, int] = {}
    for name, stat in tracer.stats.items():
        layer = LAYER_OF[name]
        totals[layer] = totals.get(layer, 0) + stat.self_ns
    return totals


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer, episodes) -> dict:
    """Every :data:`PER_LAYER` metric from one traced run."""
    packets = sum(e.clock.packets for e in episodes)
    counters = episodes[0].outputs.counters
    s, t, calls, counts = tracer.self_ns, tracer.total_ns, tracer.calls, \
        tracer.counts

    def per_pkt(ns: float) -> float:
        return _ratio(ns, packets)

    def per_call_us(name: str) -> float:
        return _ratio(t(name), calls(name)) / 1e3

    hits = counters.get("cache_hits", 0)
    probes = hits + counters.get("cache_misses", 0)
    shards = [v for k, v in sorted(counts.items())
              if k.startswith("rss.shard")]
    folded = counts["aqm.folded_calls"]
    values = {
        "simnet.engine.self_ns_per_pkt": per_pkt(s("simnet.engine")),
        "simnet.engine.events_per_pkt": _ratio(
            counters.get("events", 0), episodes[0].clock.packets),
        "simnet.queue_sim.enqueue_self_ns_per_pkt":
            per_pkt(s("simnet.queue_sim")),
        "netfunc.aqm.pdp_ns_per_pkt": per_pkt(t("netfunc.aqm.pdp")),
        "netfunc.aqm.admit_self_ns_per_pkt":
            per_pkt(s("netfunc.aqm.admit")),
        "netfunc.aqm.dequeue_ns_per_pkt": per_pkt(t("netfunc.aqm.dequeue")),
        "netfunc.aqm.pkts_per_pdp_call": _ratio(
            counts["aqm.pdp_rows"], calls("netfunc.aqm.pdp")),
        "netfunc.aqm.folded_share": _ratio(
            folded, folded + calls("netfunc.aqm.pdp")),
        "netfunc.aqm.evaluations": episodes[0].outputs.evaluations,
        "core.pcam_pipeline.eval_ns_per_pkt":
            per_pkt(t("core.pcam_pipeline")),
        "robustness.degradation.self_ns_per_pkt": per_pkt(s(
            "robustness.degradation.admit",
            "robustness.degradation.dequeue",
            "robustness.degradation.monitor")),
        "robustness.degradation.fallback_events":
            counters.get("fallback_events", 0),
        "dataplane.pipeline.self_ns_per_pkt":
            per_pkt(s("dataplane.pipeline")),
        "dataplane.digital_mats.ns_per_pkt":
            per_pkt(t("dataplane.digital_mats")),
        "dataplane.flow_cache.hit_ratio": _ratio(hits, probes),
        "tcam.rows_searched_per_pkt": per_pkt(counts["tcam.rows"]),
        "acam.classify_ns_per_pkt": per_pkt(t("acam")),
        "acam.deterministic_share": _ratio(counts["acam.deterministic"],
                                           counts["acam.classified"]),
        "dataplane.egress.self_ns_per_pkt": per_pkt(s("dataplane.egress")),
        "dataplane.traffic_manager.enqueue_self_ns_per_pkt":
            per_pkt(s("dataplane.traffic_manager.enqueue")),
        "dataplane.traffic_manager.dequeue_ns_per_pkt":
            per_pkt(t("dataplane.traffic_manager.dequeue")),
        "dataplane.traffic_manager.empty_poll_ratio": _ratio(
            counts["tm.empty_polls"], counts["tm.polls"]),
        "control.loop.step_ns_per_pkt": per_pkt(t("control.loop")),
        "control.learning.decide_us_per_decision":
            per_call_us("control.learning"),
        "control.gate.apply_us_per_write": per_call_us("control.gate"),
        "control.cognitive.supervise_us_per_tick":
            per_call_us("control.cognitive"),
        "control.loop.decisions": counters.get("decisions", 0),
        "control.loop.applied": counters.get("applied", 0),
        "control.gate.rejections": counters.get("rejections", 0),
        "fabric.rss.ns_per_pkt": per_pkt(t("fabric.rss")),
        "fabric.rss.imbalance": _ratio(
            max(shards, default=0), _ratio(sum(shards), len(shards))),
        "fabric.scatter_ns_per_pkt": per_pkt(t("fabric.workers.scatter")),
        "fabric.gather_wait_ns_per_pkt":
            per_pkt(t("fabric.workers.gather")),
        "fabric.shm_segments_per_slice": _ratio(
            calls("fabric.workers.scatter"), calls("fabric.fabric.admit")),
        "fabric.dequeue_ns_per_pkt": per_pkt(t("fabric.fabric.dequeue")),
        "fabric.dequeue_round_trips_per_pkt":
            per_pkt(calls("fabric.workers.dequeue")),
        "fabric.extremes_ns_per_pkt": per_pkt(t("fabric.fabric.extremes")),
        "fabric.commit_us_per_commit": per_call_us("fabric.controller"),
        "fabric.commits": counters.get("commits", 0),
        "unattributed_share": _ratio(s(ROOT), tracer.wall_ns()),
    }
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in PER_LAYER.items()}
