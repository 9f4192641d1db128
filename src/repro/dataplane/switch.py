"""Declarative switch assembly: :class:`SwitchSpec` + builder.

Instead of imperative wiring scattered across callers, a switch is
described once — ports, table contents, fault tolerance, supervision
— and :func:`build_switch` assembles an
:class:`~repro.dataplane.pipeline.AnalogPacketProcessor` from the
spec: stages on the shared runtime, middleware registered once, the
controller supervising degradable tables when asked.  The spec is a
frozen value object, so one description can assemble many identical
pipelines (the door to multi-pipeline sharding later).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.dataplane.classify import ClassifierSpec
from repro.netfunc.firewall import FirewallRule
from repro.runtime import SupervisionMiddleware

__all__ = ["SwitchSpec", "build_switch"]


@dataclass(frozen=True)
class SwitchSpec:
    """A declarative description of one Figure 5 switch.

    Attributes
    ----------
    n_ports:
        Number of egress ports.
    routes:
        ``(prefix, port)`` pairs installed into the LPM table.
    firewall_rules:
        ACL rules appended in order (first match wins).
    use_memristor_tcam:
        Memristor TCAMs (the paper) vs transistor TCAMs (baseline).
    port_rate_bps / queue_capacity / flow_cache_size / n_priorities:
        Forwarded to the processor unchanged (``n_priorities=1``
        makes every egress port one FIFO queue — the paper's
        Figure 8 plant, where the AQM alone governs packet delay
        with no strict-priority starvation in the measurement).
    graceful_degradation:
        Wrap each port's AQM in the shadow-monitored
        :class:`~repro.robustness.degradation.DegradingAQM`.
    classifier:
        Optional :class:`~repro.dataplane.classify.ClassifierSpec`.
        When set, an aCAM
        :class:`~repro.dataplane.classify.ClassificationStage` is
        slotted between the digital match-action tables and egress,
        classifying every surviving packet in one analog search per
        chunk and steering mapped classes to their ports.
    supervised:
        Register every degradable AQM with the controller and install
        a :class:`~repro.runtime.SupervisionMiddleware` driving
        ``controller.tick`` once per processed chunk, so
        reprogram-retry backoff advances with traffic.  Requires
        ``graceful_degradation`` (or a degradation-capable
        ``aqm_factory`` passed to :func:`build_switch`).
    """

    n_ports: int = 4
    routes: tuple[tuple[str, int], ...] = ()
    firewall_rules: tuple[FirewallRule, ...] = ()
    use_memristor_tcam: bool = True
    port_rate_bps: float = 10e9
    queue_capacity: int = 4096
    flow_cache_size: int = 4096
    n_priorities: int = 2
    graceful_degradation: bool = False
    supervised: bool = False
    classifier: ClassifierSpec | None = None

    def __post_init__(self) -> None:
        if self.n_ports < 1:
            raise ValueError(
                f"need at least one port: {self.n_ports!r}")
        for prefix, port in self.routes:
            if not 0 <= port < self.n_ports:
                raise ValueError(
                    f"route {prefix!r} targets port {port}, but the "
                    f"spec has {self.n_ports} port(s)")
        if self.classifier is not None:
            for port in self.classifier.ports:
                if not 0 <= port < self.n_ports:
                    raise ValueError(
                        f"classifier steers to port {port}, but the "
                        f"spec has {self.n_ports} port(s)")

    def with_routes(self, *routes: tuple[str, int]) -> "SwitchSpec":
        """A copy of the spec with routes appended."""
        return replace(self, routes=self.routes + routes)


def build_switch(spec: SwitchSpec, *,
                 controller=None,
                 observability=None,
                 aqm_factory: Callable | None = None):
    """Assemble a processor (stages + middleware) from a spec.

    ``controller``/``observability`` are shared infrastructure the
    caller may thread through several switches; ``aqm_factory``
    overrides the per-port AQM construction (and suppresses the
    spec's ``graceful_degradation`` wrapping, like on the processor).

    The assembled switch always runs the pipeline compiler
    (:mod:`repro.runtime.compile`).  When the stage/middleware shape
    is provably reproducible, every entry point dispatches to one
    fused chunk kernel (byte-identical verdicts, telemetry and
    energy).  The switch stays staged only when the compiler refuses
    — e.g. with an observability hub, whose tracing middleware needs
    the staged walk — and ``processor.compiled_plan.reasons`` records
    why.
    """
    # Deferred import: callers importing only the spec vocabulary
    # (e.g. config modules) need not pull in the whole dataplane.
    from repro.dataplane.pipeline import AnalogPacketProcessor

    if spec.supervised and not spec.graceful_degradation \
            and aqm_factory is None:
        raise ValueError(
            "supervised=True needs degradation-capable AQMs: set "
            "graceful_degradation=True or pass an aqm_factory that "
            "builds them")
    processor = AnalogPacketProcessor(
        spec.n_ports,
        use_memristor_tcam=spec.use_memristor_tcam,
        aqm_factory=aqm_factory,
        port_rate_bps=spec.port_rate_bps,
        queue_capacity=spec.queue_capacity,
        flow_cache_size=spec.flow_cache_size,
        n_priorities=spec.n_priorities,
        graceful_degradation=spec.graceful_degradation,
        controller=controller,
        observability=observability)
    for rule in spec.firewall_rules:
        processor.add_firewall_rule(rule)
    for prefix, port in spec.routes:
        processor.add_route(prefix, port)
    if spec.classifier is not None:
        from repro.dataplane.classify import (ACAMClassifier,
                                              ClassificationStage)
        classifier = ACAMClassifier(spec.classifier,
                                    ledger=processor.ledger)
        processor.insert_stage(ClassificationStage(classifier),
                               before="egress")
        processor.classifier = classifier
    if spec.supervised:
        supervisor = processor.controller
        for port in range(spec.n_ports):
            aqm = processor.traffic_manager.aqm(port)
            if hasattr(aqm, "maybe_retry"):
                table = getattr(aqm, "table", "aqm")
                supervisor.supervise(f"port{port}.{table}", aqm)
        processor.use_middleware(
            processor.default_middleware()
            + [SupervisionMiddleware(supervisor.tick)])
    processor.request_compile()
    return processor
