"""The full memristor-based cognitive packet processor (Figure 5).

Wires together every block of the proposed architecture:

    ingress -> Parser -> digital MATs (firewall, IP lookup on
    memristor TCAMs) -> analog MATs (pCAM) -> Cognitive Traffic
    Manager (pCAM-based AQM at egress) -> egress queues

as stages on one :class:`repro.runtime.PipelineRuntime`.  Every entry
point — ``process`` (scalar), ``process_batch`` (columnar),
``process_frame``/``process_frames`` (wire format) — is a chunk
through the same engine; the scalar path is literally a batch of one,
so the paths cannot drift apart.  Cross-cutting concerns (span
tracing, telemetry flushing, energy attribution) are middleware
registered once at assembly time; a per-component energy ledger
attributes each packet's cost to the digital and analog domains.
"""

from __future__ import annotations

from typing import Sequence

from repro.control.cognitive import CognitiveNetworkController
from repro.dataplane.fastpath import FlowCache, TelemetryTally
from repro.dataplane.results import ProcessResult, Verdict
from repro.dataplane.stages import (
    DigitalMatsStage,
    EgressStage,
    ParserStage,
)
from repro.dataplane.parser import HeaderParser
from repro.dataplane.telemetry import TelemetryCollector
from repro.dataplane.traffic_manager import CognitiveTrafficManager
from repro.energy.ledger import EnergyLedger
from repro.netfunc.aqm.pcam_aqm import PCAMAQM
from repro.netfunc.firewall import Action, Firewall, FirewallRule
from repro.netfunc.lookup import IPLookup
from repro.observability.hub import Observability
from repro.packet import Packet
from repro.runtime import (
    EnergyAttributionMiddleware,
    PipelineRuntime,
    StageContext,
    TelemetryMiddleware,
    TracingMiddleware,
)
from repro.runtime.compile import compile_processor
from repro.tcam.mtcam import MemristorTCAM

__all__ = ["AnalogPacketProcessor", "ProcessResult", "Verdict"]


class AnalogPacketProcessor:
    """The Figure 5 switch: digital + analog match-action pipeline.

    Parameters
    ----------
    n_ports:
        Number of egress ports.
    use_memristor_tcam:
        Back the digital tables with memristor TCAMs (the paper's
        architecture) instead of transistor TCAMs (the baseline).
    aqm_factory:
        Builds the per-port AQM; defaults to the pCAM-based AQM.
    port_rate_bps:
        Egress line rate used by the AQM's delay estimator.
    flow_cache_size:
        Capacity of the LRU flow-result cache on the digital tables
        (keyed on flow 5-tuple + table generation); ``0`` disables
        caching so every packet hits the TCAMs.
    graceful_degradation:
        Wrap each port's AQM in a
        :class:`~repro.robustness.degradation.DegradingAQM` (shadow
        oracle + digital CoDel fallback + reprogram-retry backoff).
        Ignored when an explicit ``aqm_factory`` is given.
    observability:
        Optional :class:`~repro.observability.hub.Observability` hub.
        When given, the pipeline's telemetry collector and energy
        ledger are folded onto the hub's registry, degradation-capable
        AQMs are bound as fallback/retry metrics, the shared tracer is
        registered as tracing middleware (parser -> tables -> traffic
        manager -> queues -> pCAM pipeline), and the batch kernels
        report to the hub's profiler.  Without a hub every hook stays
        inert.
    """

    def __init__(self, n_ports: int = 4, *,
                 use_memristor_tcam: bool = True,
                 aqm_factory=None,
                 port_rate_bps: float = 10e9,
                 queue_capacity: int = 4096,
                 flow_cache_size: int = 4096,
                 n_priorities: int = 2,
                 graceful_degradation: bool = False,
                 controller: CognitiveNetworkController | None = None,
                 observability: Observability | None = None
                 ) -> None:
        if n_ports < 1:
            raise ValueError(f"need at least one port: {n_ports!r}")
        self.ledger = EnergyLedger()
        self.parser = HeaderParser()
        if use_memristor_tcam:
            firewall_tcam = MemristorTCAM(Firewall.WIDTH,
                                          ledger=self.ledger)
            lookup_tcam = MemristorTCAM(IPLookup.WIDTH, ledger=self.ledger)
        else:
            firewall_tcam = None
            lookup_tcam = None
        self.firewall = Firewall(default_action=Action.PERMIT,
                                 tcam=firewall_tcam, ledger=self.ledger)
        self.lookup = IPLookup(tcam=lookup_tcam, ledger=self.ledger)
        if aqm_factory is not None:
            factory = aqm_factory
        elif graceful_degradation:
            # Deferred import: robustness sits above the dataplane.
            from repro.robustness.degradation import DegradingAQM
            factory = lambda: DegradingAQM(PCAMAQM(ledger=self.ledger))
        else:
            factory = lambda: PCAMAQM(ledger=self.ledger)
        self.observability = observability
        tracer = observability.tracer if observability else None
        self.traffic_manager = CognitiveTrafficManager(
            n_ports, aqm_factory=factory,
            n_priorities=n_priorities,
            queue_capacity=queue_capacity,
            port_rate_bps=port_rate_bps,
            tracer=tracer)
        self.controller = controller or CognitiveNetworkController()
        self.telemetry = TelemetryCollector()
        self.flow_cache = FlowCache(flow_cache_size) \
            if flow_cache_size > 0 else None
        self._ports_by_hop: dict[str, int] = {}
        self.processed = 0
        self.verdict_counts: dict[Verdict, int] = {
            verdict: 0 for verdict in Verdict}
        # The staged runtime: one engine behind every entry point.
        self._parser_stage = ParserStage(self)
        self._digital_stage = DigitalMatsStage(self)
        self._egress_stage = EgressStage(self)
        self._frame_stages = (self._parser_stage,)
        self._mat_stages = (self._digital_stage, self._egress_stage)
        self.runtime = PipelineRuntime(
            [self._parser_stage, self._digital_stage,
             self._egress_stage],
            self.default_middleware())
        #: Fused chunk kernel (set by :meth:`request_compile` when the
        #: compiler proves the staged walk reproducible); None keeps
        #: every entry point on the staged runtime.  ``build_switch``
        #: requests compilation; a processor assembled by hand stays
        #: staged until asked.
        self._fused = None
        self.compiled_plan = None
        self._compile_requested = False
        if observability is not None:
            self._wire_observability(observability)

    # ------------------------------------------------------------------
    # Runtime assembly
    # ------------------------------------------------------------------
    def default_middleware(self) -> list:
        """The stock middleware set the switch is assembled with.

        Telemetry flushing and energy attribution always; span tracing
        only when an observability hub is attached.  Each concern is
        registered exactly once here instead of being open-coded in
        every stage.
        """
        middleware: list = [
            TelemetryMiddleware(self.telemetry, TelemetryTally)]
        if self.observability is not None:
            middleware.append(
                TracingMiddleware(self.observability.tracer))
        middleware.append(EnergyAttributionMiddleware(self.ledger))
        return middleware

    def insert_stage(self, stage, *, before: str) -> None:
        """Slot an extra stage into the match-action walk.

        The stage lands immediately before the named composed stage —
        both in the runtime's full stage list and in the match-action
        subsequence the packet entry points run — on the *existing*
        runtime object, so observability collectors and middleware
        bound at assembly keep working unchanged.
        """
        anchor = self.runtime.stage(before)
        if any(s.name == stage.name for s in self.runtime.stages):
            raise ValueError(
                f"duplicate stage name: {stage.name!r}")
        self.runtime.stages.insert(
            self.runtime.stages.index(anchor), stage)
        mats = list(self._mat_stages)
        if anchor in mats:
            mats.insert(mats.index(anchor), stage)
        else:
            mats.append(stage)
        self._mat_stages = tuple(mats)
        self._recompile()

    def use_middleware(self, middleware: Sequence) -> None:
        """Replace the runtime's middleware (assembly-time hook).

        The stock middleware are order independent; this exists so
        experiments (and the ordering tests) can permute or extend the
        set without rebuilding the switch.
        """
        self.runtime.set_middleware(middleware)
        self._recompile()

    def request_compile(self):
        """Switch to the fused chunk kernel (when provably exact).

        Runs the pipeline compiler (:mod:`repro.runtime.compile`) over
        the current stage/middleware assembly and returns its
        :class:`~repro.runtime.compile.CompiledPlan`.  When the plan
        fuses, every entry point dispatches to the fused kernel; when
        it refuses — tracing middleware, exotic stages — the
        staged walk stays in place and ``plan.reasons`` says why.  The
        request is sticky: stage insertion and middleware replacement
        recompile automatically.
        """
        self._compile_requested = True
        return self._recompile()

    def _recompile(self):
        """Re-run the compiler after a structural change (if requested)."""
        if not self._compile_requested:
            return None
        plan = compile_processor(self)
        self.compiled_plan = plan
        self._fused = plan.kernel
        return plan

    def _wire_observability(self, obs: Observability) -> None:
        """Bind every pipeline component to the shared hub."""
        obs.watch_telemetry(self.telemetry)
        obs.watch_ledger(self.ledger)
        obs.watch_runtime(self.runtime)
        for port in range(self.traffic_manager.n_ports):
            aqm = self.traffic_manager.aqm(port)
            if hasattr(aqm, "maybe_retry") and hasattr(
                    aqm, "fallback_events"):
                table = getattr(aqm, "table", "pcam_aqm")
                obs.watch_degradation(aqm, table=f"port{port}.{table}")
            # DegradingAQM forwards ``pipeline`` to its wrapped analog
            # AQM, so one attribute covers bare and wrapped tables.
            pipeline = getattr(aqm, "pipeline", None)
            if pipeline is not None:
                pipeline.tracer = obs.tracer
                pipeline.profiler = obs.profiler
        self.controller.attach_observability(obs)

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def add_route(self, prefix: str, port: int) -> None:
        """Route a prefix to an egress port (invalidates flow cache)."""
        if not 0 <= port < self.traffic_manager.n_ports:
            raise IndexError(f"port {port} out of range")
        next_hop = f"port{port}"
        self._ports_by_hop[next_hop] = port
        self.lookup.add_route(prefix, next_hop)
        self.invalidate_flow_cache()

    def add_firewall_rule(self, rule: FirewallRule) -> None:
        """Append an ACL rule (invalidates the flow cache)."""
        self.firewall.add_rule(rule)
        self.invalidate_flow_cache()

    def invalidate_flow_cache(self) -> None:
        """Drop every cached digital classification result.

        Table mutations call this automatically; the table generation
        counters would catch a stale entry anyway, so this is the
        explicit belt to the generation braces (and the hook for
        out-of-band invalidation, e.g. after fault injection).
        """
        if self.flow_cache is not None:
            self.flow_cache.clear()

    # ------------------------------------------------------------------
    # Data path (every entry point is a chunk through the runtime)
    # ------------------------------------------------------------------
    def process_frame(self, frame: bytes, now: float = 0.0
                      ) -> ProcessResult:
        """Parse a wire-format Ethernet frame and process it."""
        return self.process_frames([frame], now, chunk_size=1)[0]

    def process_frames(self, frames: Sequence[bytes], now: float = 0.0,
                       chunk_size: int = 64) -> list[ProcessResult]:
        """Parse and process a burst of wire-format frames.

        The whole burst is parsed in one columnar pass (malformed
        frames yield ``DROPPED_PARSE`` results in place); the
        survivors then ride the same chunked match-action walk as
        :meth:`process_batch`.  Results are returned in frame order.
        """
        self._set_time(now)
        if self._fused is not None:
            return self._fused.process_frames(frames, now, chunk_size)
        results: list[ProcessResult | None] = [None] * len(frames)
        ctx = StageContext(now, self._emitter(results),
                           indices=range(len(frames)),
                           entry_name=None)
        packets = self.runtime.run_chunk(list(frames), ctx,
                                         self._frame_stages)
        self._run_chunks(packets, ctx.columns["index"], now,
                         chunk_size, results)
        return results  # type: ignore[return-value]

    def process(self, packet: Packet, now: float = 0.0) -> ProcessResult:
        """Run one parsed packet through the match-action pipeline.

        Literally a batch of one through the staged runtime, so the
        scalar and batched paths cannot drift apart.
        """
        self._set_time(now)
        if self._fused is not None:
            return self._fused.process_one(packet, now)
        results: list[ProcessResult | None] = [None]
        ctx = StageContext(now, self._emitter(results), indices=[0],
                           entry_name="dataplane.process")
        self.runtime.run_chunk([packet], ctx, self._mat_stages)
        assert results[0] is not None
        return results[0]

    def process_batch(self, packets: Sequence[Packet], now: float = 0.0,
                      chunk_size: int = 64) -> list[ProcessResult]:
        """Run many packets through the pipeline in admission chunks.

        Per chunk, the digital match-action tables (ACL, IP lookup)
        are consulted in whole-batch vectorised TCAM passes over a
        columnar packet view, with repeated flows answered from the
        generation-keyed flow cache; egress admission is batched too:
        all survivors of a chunk bound for the same port are judged by
        that port's AQM in one vectorised pCAM search against the
        chunk-start queue state.  Results are returned in input order;
        ``chunk_size=1`` reproduces :meth:`process` exactly.
        """
        self._set_time(now)
        results: list[ProcessResult | None] = [None] * len(packets)
        if self._fused is not None:
            self._fused.run_chunks(packets, range(len(packets)), now,
                                   chunk_size, results)
        else:
            self._run_chunks(packets, range(len(packets)), now,
                             chunk_size, results)
        return results  # type: ignore[return-value]

    def _run_chunks(self, packets: Sequence[Packet],
                    indices: Sequence[int], now: float, chunk_size: int,
                    results: list[ProcessResult | None]) -> None:
        """Chunk packets through the match-action stages."""
        if chunk_size < 1:
            raise ValueError(
                f"chunk size must be >= 1: {chunk_size!r}")
        emit = self._emitter(results)
        indices = list(indices)
        for start in range(0, len(packets), chunk_size):
            chunk = packets[start:start + chunk_size]
            ctx = StageContext(
                now, emit,
                indices=indices[start:start + chunk_size],
                entry_name="dataplane.process_batch",
                entry_attributes={"chunk": len(chunk)})
            self.runtime.run_chunk(chunk, ctx, self._mat_stages)

    def _emitter(self, results: list[ProcessResult | None]):
        """An emit callback recording verdicts into a result slot list."""
        def emit(index: int, verdict: Verdict, port: int | None = None,
                 packet: Packet | None = None) -> None:
            results[index] = self._finish(verdict, port=port,
                                          packet=packet)
        return emit

    def _set_time(self, now: float) -> None:
        obs = self.observability
        if obs is not None:
            obs.set_time(now)

    @property
    def n_ports(self) -> int:
        """Number of egress ports."""
        return self.traffic_manager.n_ports

    def dequeue(self, port: int, now: float = 0.0) -> Packet | None:
        """Serve one packet from an egress port (AQM head drops apply)."""
        return self.traffic_manager.dequeue(port, now)

    def drain(self, port: int, now: float = 0.0,
              limit: int | None = None) -> list[Packet]:
        """Serve pending packets from one egress port."""
        served: list[Packet] = []
        while limit is None or len(served) < limit:
            packet = self.traffic_manager.dequeue(port, now)
            if packet is None:
                break
            served.append(packet)
        return served

    def _finish(self, verdict: Verdict, port: int | None = None,
                packet: Packet | None = None) -> ProcessResult:
        self.processed += 1
        self.verdict_counts[verdict] += 1
        return ProcessResult(verdict=verdict, port=port, packet=packet)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def energy_total_j(self) -> float:
        """Total energy across all pipeline components [J]."""
        return self.ledger.total

    def energy_breakdown(self) -> dict[str, float]:
        """Per-account energy totals of the whole pipeline [J]."""
        return self.ledger.breakdown()

    def energy_by_stage(self) -> dict[str, float]:
        """Joules attributed to each runtime stage (middleware view)."""
        return self.runtime.energy_attribution()

    def slice_extremes(self) -> tuple[float, float, int]:
        """(max delay EWMA, max PDP, max backlog) across the ports.

        Read from each port's pCAM AQM (behind its degradation wrapper,
        if any) and queue; a
        :class:`~repro.fabric.fabric.SwitchFabric` reports the same
        triple across its shards.
        """
        manager = self.traffic_manager
        ports = range(manager.n_ports)
        analogs = [manager.aqm(port).analog for port in ports]
        return (max(analog.delay_ewma_s for analog in analogs),
                max(analog.last_pdp for analog in analogs),
                max(manager.backlog(port) for port in ports))

    def robustness_stats(self) -> dict:
        """Fallback events, retries and degraded tables, switch-wide."""
        aqms = [self.traffic_manager.aqm(p) for p in range(self.n_ports)]
        return {
            "fallback_events": sum(getattr(aqm, "fallback_events", 0)
                                   for aqm in aqms),
            "retries": sum(getattr(aqm, "retries", 0) for aqm in aqms),
            "degraded_tables": list(self.controller.degraded_tables()),
        }
