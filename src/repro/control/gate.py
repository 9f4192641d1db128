"""The learned-vs-static scenario gate (the paper-fidelity payoff).

The paper's end-to-end objective is a mean queueing delay of
20ms +/- 10ms.  A *static* programming cannot hold it across traffic
regimes: an AQM mis-programmed for a 120ms target lets the queue
drift far out of the envelope the moment a diurnal peak or flash
crowd saturates a port.  The gate demonstrates the closed loop
repairing exactly that: the same mis-programmed switch, with an SPSA
(or CEM) learning loop attached through the cognitive controller's
supervision tick, pulls the worst-port delay back inside the
envelope — and every candidate reprogram clears the degradation
oracle on its way in.

:func:`run_gate` runs one scenario twice (static, then learned) and
returns a JSON-able comparison document; the ``control-loop`` CI job
and ``benchmarks/test_control_loop.py`` assert on it and archive it
as ``benchmarks/BENCH_control.json``.
"""

from __future__ import annotations

import numpy as np

from repro.control.learning import DelayEnvelope, EnvelopeGate, SPSAPolicy
from repro.control.loop import AQMActuator, ControlLoop, SwitchSensor

__all__ = [
    "MISPROGRAMMED_TARGET_S",
    "control_switch_factory",
    "run_gate",
]

#: The static strawman: an AQM aimed at 120ms +/- 60ms — six times
#: the paper's target, the kind of stale programming an NMS leaves
#: behind when traffic moves.
MISPROGRAMMED_TARGET_S = 0.120
MISPROGRAMMED_DEVIATION_S = 0.060


def control_switch_factory(*, learned: bool,
                           envelope: DelayEnvelope | None = None,
                           policy_cls=SPSAPolicy,
                           min_interval_s: float = 0.03,
                           start_target_s: float = MISPROGRAMMED_TARGET_S,
                           start_deviation_s: float =
                           MISPROGRAMMED_DEVIATION_S,
                           order: int = 1,
                           attachments: dict | None = None):
    """A ``processor_factory`` for :func:`repro.simnet.run_scenario`.

    Builds the scenario's standard supervised switch, but with every
    port's AQM mis-programmed at ``start_target_s`` and its internal
    threshold adaptation off — the programming only moves if a
    control loop moves it.  With ``learned=True`` a ``policy_cls``
    sweep (seeded from the scenario seed) is attached to the switch's
    cognitive controller behind an :class:`EnvelopeGate`, so the
    supervision tick drives sense -> decide -> gate -> ``update_pCAM``
    once per ``min_interval_s`` of simulated time.

    ``attachments``, when given, receives the live ``policy``,
    ``gate`` and ``loop`` objects keyed by name — the gate runner
    reads sweep statistics out of it after the scenario completes.

    ``order`` defaults to first-order AQMs (zeroth-order band plus
    the d/dt veto): the learned knob is the zeroth-order band, and
    the d2/d3 veto stages — whose normalised derivatives swing deep
    negative while an extreme surge oscillates — cut the PDP hard
    during every drain, readmitting enough of an 8x overload that
    the queue limit-cycles far above *any* programmed band.  No
    retargeting can repair that, so the higher orders stay on the A1
    ablation axis rather than in the control-gate plant.
    """
    envelope = envelope or DelayEnvelope()

    def factory(spec, seed):
        from repro.simnet.scenarios import build_scenario_switch

        processor = build_scenario_switch(
            spec, seed, target_delay_s=start_target_s,
            max_deviation_s=start_deviation_s, order=order,
            adaptation=False)
        if learned:
            manager = processor.traffic_manager
            aqms = [manager.aqm(port) for port in range(manager.n_ports)]
            policy = policy_cls.for_aqm(
                aqms[0], seed=seed, envelope=envelope)
            gate = EnvelopeGate(AQMActuator(*aqms), aqms)
            sensor = SwitchSensor(processor, delay_source="backlog")
            loop = ControlLoop(sensor, policy, gate,
                               min_interval_s=min_interval_s)
            processor.controller.attach_loop(loop)
            if attachments is not None:
                attachments.update(policy=policy, gate=gate, loop=loop)
        return processor

    return factory


def _windowed(report) -> list[dict]:
    return [{"index": w.index, "t_end_s": w.t_end_s,
             "max_delay_ewma_s": w.max_delay_ewma_s,
             "mean_delay_ewma_s": w.mean_delay_ewma_s,
             "aqm_drops": w.aqm_drops, "offered": w.offered}
            for w in report.windows]


def run_gate(scenario_name: str, *, seed: int = 0,
             n_packets: int = 240_000, port_rate_bps: float = 60e6,
             queue_capacity: int = 2_400,
             envelope: DelayEnvelope | None = None,
             policy_cls=SPSAPolicy,
             min_interval_s: float = 0.06,
             settle_fraction: float = 0.5) -> dict:
    """Static vs learned, one scenario, one JSON-able verdict.

    Runs the scenario twice from the same seed and switch spec (ports
    throttled to ``port_rate_bps`` so the scenario's peak actually
    congests): once with the mis-programmed static AQM, once with the
    learning loop attached.  *Congested windows* are the static run's
    windows whose sustained (tick-averaged) worst-port delay drifted
    above the envelope; the gate compares mean sustained delay over
    those windows between the runs.

    The sweep starts from the same misprogramming the static run is
    stuck with, so the first part of the run *is* the learning
    transient.  ``settle_fraction`` marks where the exam starts: the
    headline ``mean_congested_delay_s`` is taken over congested
    windows in the last ``1 - settle_fraction`` of the run (both the
    full-run and settled means are reported).

    ``queue_capacity`` defaults to a realistically sized buffer
    (~120 ms of drain at the default port rate) instead of the
    scenario matrix's deliberately bottomless 16k-packet queues.
    That matters for learnability, not just realism: with seconds of
    buffer a congestion peak is one long rising transient, so
    a candidate programming's measured delay reflects the ramp it
    was deployed into rather than its own equilibrium.  A BDP-scale
    buffer reaches quasi-steady state within one decision window,
    which is what makes the SPSA finite differences attributable —
    and the static misprogrammed run still drifts far out of the
    envelope, pinned at the buffer cap (classic bufferbloat).

    The returned document carries, per run, the windowed delay
    trajectory plus the sweep statistics (episodes, commits, gate
    rejections/violations, final and best programming) needed by the
    CI gate: learned mean delay inside ``envelope.target_s +/-
    halfwidth_s`` where the static mean drifted out, with zero
    envelope violations and no degraded tables.
    """
    from repro.simnet.scenarios import default_switch_spec, run_scenario

    envelope = envelope or DelayEnvelope()
    # Single-priority FIFO ports: the paper's Figure 8 plant.  With
    # strict-priority classes a low-priority surge (flash crowd) is
    # starved behind base traffic, so its measured sojourn is set by
    # the *scheduler*, not the AQM programming — no band, learned or
    # ideal, could hold the envelope there.
    spec = default_switch_spec(port_rate_bps=port_rate_bps,
                               queue_capacity=queue_capacity,
                               n_priorities=1)

    static_report = run_scenario(
        scenario_name, seed=seed, n_packets=n_packets, spec=spec,
        processor_factory=control_switch_factory(learned=False))

    attachments: dict = {}
    learned_report = run_scenario(
        scenario_name, seed=seed, n_packets=n_packets, spec=spec,
        processor_factory=control_switch_factory(
            learned=True, envelope=envelope, policy_cls=policy_cls,
            min_interval_s=min_interval_s, attachments=attachments))

    upper = envelope.target_s + envelope.halfwidth_s
    congested = [w.index for w in static_report.windows
                 if w.mean_delay_ewma_s > upper]
    first_settled = int(settle_fraction * len(static_report.windows))
    settled = [i for i in congested if i >= first_settled]

    def mean_over(report, indices):
        if not indices:
            return 0.0
        return float(np.mean([report.windows[i].mean_delay_ewma_s
                              for i in indices]))

    policy = attachments["policy"]
    gate = attachments["gate"]
    loop = attachments["loop"]
    return {
        "scenario": scenario_name,
        "seed": seed,
        "n_packets": n_packets,
        "port_rate_bps": port_rate_bps,
        "queue_capacity": queue_capacity,
        "policy": policy_cls.__name__,
        "envelope": {"target_s": envelope.target_s,
                     "halfwidth_s": envelope.halfwidth_s},
        "congested_windows": congested,
        "settled_congested_windows": settled,
        "static": {
            "mean_congested_delay_s": mean_over(static_report, settled),
            "mean_congested_delay_full_run_s": mean_over(
                static_report, congested),
            "windows": _windowed(static_report),
            "aqm_drops": static_report.verdict_counts["dropped_aqm"],
            "degraded_tables": list(static_report.degraded_tables),
        },
        "learned": {
            "mean_congested_delay_s": mean_over(learned_report,
                                                settled),
            "mean_congested_delay_full_run_s": mean_over(
                learned_report, congested),
            "windows": _windowed(learned_report),
            "aqm_drops": learned_report.verdict_counts["dropped_aqm"],
            "degraded_tables": list(learned_report.degraded_tables),
            "episodes": policy.episodes,
            "decisions": loop.decisions,
            "applied": loop.applied,
            "gate_checks": gate.checks,
            "gate_rejections": gate.rejections,
            "gate_violations": gate.violations,
            "final_programming": list(policy.programming),
            "best_programming": list(policy.best_programming),
            "best_score": policy.best_score,
        },
    }
