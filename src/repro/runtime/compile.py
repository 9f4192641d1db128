"""Pipeline compiler: a SwitchSpec-assembled processor, one fused kernel.

The staged runtime buys its composability with per-chunk machinery —
an ``ExitStack`` of middleware context managers around every chunk
and every stage, a closure-based emitter that books each verdict one
call at a time, and auxiliary columns rebuilt at every stage
boundary.  For the stock switch shape (parser -> digital MATs ->
optional classifiers -> egress under telemetry / energy-attribution /
supervision middleware) none of that flexibility is exercised per
packet, so :func:`compile_processor` folds it away:

* **Shape analysis** proves the processor is the stock pipeline: the
  frame walk is exactly the parser stage, the match-action walk opens
  with the digital MATs and closes with egress, and every registered
  middleware is one the kernel knows how to reproduce exactly
  (telemetry tally + flush, per-stage ledger attribution, per-chunk
  supervision).  Anything else — tracing middleware, fault-plan
  installers, unknown middleware, a rearranged stage list — refuses
  with a recorded reason and the processor keeps the staged walk.
* **Constant folding** captures loop invariants the staged walk
  re-derives per chunk or per packet: the DENY sentinel, the drop
  event names, per-port INT-stamp and gauge names, and the per-port
  egress backlog (constant for the duration of the digital stage).
* **Fusion** executes the digital verdict loop and egress admission
  inline, writing :class:`~repro.dataplane.results.ProcessResult`
  slots directly and bulk-updating ``processed`` /
  ``verdict_counts`` once per chunk instead of once per packet —
  before the chunk's middleware epilogue, so a supervision tick
  senses the same counters the staged walk shows it.
  Interior stages (e.g. the aCAM classifier) still run through their
  real ``process_batch`` under a real context, so inserted stages
  never change behaviour — they only anchor the fused prologue and
  epilogue around themselves.
* **Lowering** is delegated to the analog leg: every pCAM AQM folds
  uniform admission chunks on its own (:mod:`repro.core.pcam_fold`),
  fused or staged, and the fold lowers through numba when importable
  and stays pure NumPy/Python otherwise — CI runs hermetically
  either way.

:func:`~repro.dataplane.switch.build_switch` runs the compiler on
every switch it assembles, so the fused kernel is the default, staged
only when the compiler refuses (``CompiledPlan.reasons`` says why).

Chunk/stage counters, telemetry totals, gauge samples, ledger
charges, per-stage energy attribution, RNG draw order and supervision
ticks are all reproduced exactly; ``tests/test_runtime_golden.py``
pins the compiled configurations byte-for-byte against the staged
references.

Layering: this module is the one sanctioned bridge from the runtime
package down into ``repro.dataplane`` (it compiles dataplane stage
shapes, so it must see them); it must never import ``repro.netfunc``
— table sentinels are recovered from the live objects instead
(``tools/check_layering.py`` enforces both directions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.pcam_fold import LOWERING
from repro.dataplane.fastpath import PacketBatch, classify_chunk
from repro.dataplane.results import DROP_EVENTS, ProcessResult, Verdict
from repro.dataplane.stages import (
    ADMISSION_VERDICTS,
    DigitalMatsStage,
    EgressStage,
    ParserStage,
)
from repro.dataplane.telemetry import stamp_packet
from repro.runtime.engine import _drained
from repro.runtime.middleware import (
    EnergyAttributionMiddleware,
    SupervisionMiddleware,
    TelemetryMiddleware,
)
from repro.runtime.stage import NULL_TALLY, StageContext

__all__ = ["CompiledPlan", "FusedSwitchKernel", "compile_processor"]

_PARSE_EVENT = DROP_EVENTS[Verdict.DROPPED_PARSE]
_ACL_EVENT = DROP_EVENTS[Verdict.DROPPED_ACL]
_NO_ROUTE_EVENT = DROP_EVENTS[Verdict.DROPPED_NO_ROUTE]


@dataclass(frozen=True)
class CompiledPlan:
    """Outcome of one compilation attempt.

    ``fused`` is False when the processor's shape or middleware set
    cannot be reproduced exactly; ``reasons`` then says why (one line
    per obstruction) and the processor keeps the staged walk.
    ``lowering`` reports the backend the folded analog lane evaluates
    through (``numba`` when importable, else ``python``).
    """

    fused: bool
    reasons: tuple[str, ...]
    stages: tuple[str, ...]
    lowering: str
    kernel: "FusedSwitchKernel | None" = field(default=None, repr=False)


class FusedSwitchKernel:
    """The stock switch pipeline as one pass per chunk.

    Built by :func:`compile_processor` after shape analysis; mirrors
    the staged walk's observable behaviour exactly (see the module
    docstring) while eliminating its per-packet and per-stage
    machinery.  Holds only borrowed references — tables, cache,
    traffic manager and middleware state are read at call time, so
    run-time reconfiguration stays visible; structural changes
    (stage insertion, middleware replacement) recompile via
    :meth:`~repro.dataplane.pipeline.AnalogPacketProcessor._recompile`.
    """

    def __init__(self, processor, parser_stage: ParserStage,
                 digital_stage: DigitalMatsStage,
                 interior: Sequence, egress_stage: EgressStage,
                 telemetry: TelemetryMiddleware | None,
                 energy: EnergyAttributionMiddleware | None,
                 supervision: SupervisionMiddleware | None) -> None:
        self._processor = processor
        self._runtime = processor.runtime
        self._parser_name = parser_stage.name
        self._digital_name = digital_stage.name
        self._interior = tuple(interior)
        self._egress_name = egress_stage.name
        self._telemetry = telemetry
        self._energy = energy
        self._supervision = supervision
        self._ledger = processor.ledger
        # The DENY sentinel without importing repro.netfunc: recovered
        # from the live firewall's (enum) default action.
        self._deny = type(processor.firewall.default_action).DENY
        # Loop-invariant name folds (ports are small and stable).
        self._stamp_names: dict[int, str] = {}
        self._gauge_names: dict[int, str] = {}

    # ------------------------------------------------------------------
    # Entry points (mirror AnalogPacketProcessor's staged walks)
    # ------------------------------------------------------------------
    def process_one(self, packet, now: float) -> ProcessResult:
        """One parsed packet: a fused chunk of one."""
        results: list[ProcessResult | None] = [None]
        self._run_chunk([packet], [0], now, results)
        assert results[0] is not None
        return results[0]

    def run_chunks(self, packets: Sequence, indices: Sequence[int],
                   now: float, chunk_size: int,
                   results: list[ProcessResult | None]) -> None:
        """Chunk packets through the fused match-action kernel."""
        if chunk_size < 1:
            raise ValueError(
                f"chunk size must be >= 1: {chunk_size!r}")
        indices = list(indices)
        for start in range(0, len(packets), chunk_size):
            self._run_chunk(packets[start:start + chunk_size],
                            indices[start:start + chunk_size],
                            now, results)

    def process_frames(self, frames: Sequence[bytes], now: float,
                       chunk_size: int) -> list[ProcessResult]:
        """One fused parser chunk over the burst, then chunked MATs."""
        results: list[ProcessResult | None] = [None] * len(frames)
        runtime = self._runtime
        runtime.chunks += 1
        tally = self._telemetry.tally_factory() \
            if self._telemetry is not None else NULL_TALLY
        survivors: list = []
        kept: list[int] = []
        counts: dict[Verdict, int] = {}
        try:
            if frames:
                runs = runtime.stage_runs
                runs[self._parser_name] = \
                    runs.get(self._parser_name, 0) + 1
                before = self._ledger.total
                parsed = self._processor.parser.parse_frames(
                    frames, created_at=now)
                for offset, packet in enumerate(parsed):
                    if packet is None:
                        tally.event(_PARSE_EVENT)
                        results[offset] = ProcessResult(
                            verdict=Verdict.DROPPED_PARSE)
                        counts[Verdict.DROPPED_PARSE] = \
                            counts.get(Verdict.DROPPED_PARSE, 0) + 1
                    else:
                        survivors.append(packet)
                        kept.append(offset)
                if self._energy is not None:
                    self._energy.record(self._parser_name,
                                        self._ledger.total - before)
        finally:
            self._finish_chunk(tally, now, counts)
        self.run_chunks(survivors, kept, now, chunk_size, results)
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # The fused chunk
    # ------------------------------------------------------------------
    def _run_chunk(self, packets: Sequence, indices: Sequence[int],
                   now: float,
                   results: list[ProcessResult | None]) -> None:
        """Digital MATs -> interior stages -> egress, one fused pass.

        Reproduces the staged walk's chunk/stage counters, tally
        contents, ledger attribution and supervision tick exactly;
        drop verdicts are written straight into the result slots and
        the processor's totals are bulk-updated once per chunk.
        """
        runtime = self._runtime
        runtime.chunks += 1
        tally = self._telemetry.tally_factory() \
            if self._telemetry is not None else NULL_TALLY
        counts: dict[Verdict, int] = {}
        try:
            if packets:
                survivors, kept, ports = self._digital_pass(
                    packets, indices, now, tally, results, counts)
                if self._interior and survivors:
                    survivors, kept, ports = self._interior_pass(
                        survivors, kept, ports, now, tally, results)
                if survivors:
                    self._egress_pass(survivors, kept, ports, now,
                                      tally, results, counts)
        finally:
            self._finish_chunk(tally, now, counts)

    def _finish_chunk(self, tally, now: float,
                      counts: dict[Verdict, int]) -> None:
        """The staged walk's chunk epilogue, in middleware exit order.

        The chunk's verdicts are booked first: the staged walk counts
        each one as it is emitted, so every middleware exit — above
        all the supervision tick, whose control loop senses exactly
        these counters — must see them.  Middleware then exit in
        reverse registration order, so supervision (registered last)
        ticks before the telemetry tally flushes.
        """
        if counts:
            processor = self._processor
            verdict_counts = processor.verdict_counts
            for verdict, n in counts.items():
                verdict_counts[verdict] += n
            processor.processed += sum(counts.values())
        supervision = self._supervision
        if supervision is not None:
            supervision.invocations += 1
            supervision.supervise(now)
        if self._telemetry is not None:
            tally.flush(self._telemetry.collector)

    def _digital_pass(self, packets: Sequence, indices: Sequence[int],
                      now: float, tally,
                      results: list[ProcessResult | None],
                      counts: dict[Verdict, int]
                      ) -> tuple[list, list[int], list[int]]:
        """The digital MATs verdict loop, fused.

        Classification reuses the exact columnar kernel the staged
        stage runs (:func:`~repro.dataplane.fastpath.classify_chunk`),
        so cache counters, TCAM energy and lookup order are identical
        by construction; the verdict loop folds the per-packet emitter
        into direct result writes and memoises the per-port backlog
        (constant until egress enqueues) and INT-stamp names.
        """
        processor = self._processor
        runs = self._runtime.stage_runs
        name = self._digital_name
        runs[name] = runs.get(name, 0) + 1
        before = self._ledger.total
        batch = PacketBatch(packets)
        actions, hops = classify_chunk(
            batch, processor.firewall, processor.lookup,
            processor.flow_cache, None)
        default = processor.firewall.default_action
        deny = self._deny
        manager = processor.traffic_manager
        ports_by_hop = processor._ports_by_hop
        stamp_names = self._stamp_names
        backlogs: dict[int, int] = {}
        survivors: list = []
        kept: list[int] = []
        ports: list[int] = []
        for offset, packet in enumerate(packets):
            acl = actions[offset]
            tally.lookup("firewall", hit=acl is not default,
                         verdict=acl.value)
            if acl is deny:
                packet.dropped = True
                tally.event(_ACL_EVENT)
                results[indices[offset]] = ProcessResult(
                    verdict=Verdict.DROPPED_ACL, packet=packet)
                counts[Verdict.DROPPED_ACL] = \
                    counts.get(Verdict.DROPPED_ACL, 0) + 1
                continue
            next_hop = hops[offset]
            tally.lookup("ip_lookup", hit=next_hop is not None,
                         verdict=next_hop)
            if next_hop is None:
                packet.dropped = True
                tally.event(_NO_ROUTE_EVENT)
                results[indices[offset]] = ProcessResult(
                    verdict=Verdict.DROPPED_NO_ROUTE, packet=packet)
                counts[Verdict.DROPPED_NO_ROUTE] = \
                    counts.get(Verdict.DROPPED_NO_ROUTE, 0) + 1
                continue
            port = ports_by_hop[next_hop]
            backlog = backlogs.get(port)
            if backlog is None:
                backlog = backlogs[port] = manager.backlog(port)
            stamp = stamp_names.get(port)
            if stamp is None:
                stamp = stamp_names[port] = f"egress{port}"
            stamp_packet(packet, stamp, backlog, now)
            survivors.append(packet)
            kept.append(indices[offset])
            ports.append(port)
        if self._energy is not None:
            self._energy.record(name, self._ledger.total - before)
        return survivors, kept, ports

    def _interior_pass(self, survivors: list, kept: list[int],
                       ports: list[int], now: float, tally,
                       results: list[ProcessResult | None]
                       ) -> tuple[list, list[int], list[int]]:
        """Run inserted stages (e.g. the classifier) un-fused.

        Each interior stage gets a real :class:`StageContext` over the
        live columns and the processor's real emitter, so arbitrary
        inserted stages behave exactly as on the staged walk; the
        fused prologue/epilogue just bracket them.
        """
        processor = self._processor
        runs = self._runtime.stage_runs
        ctx = StageContext(now, processor._emitter(results),
                           indices=kept)
        ctx.columns["egress_port"] = ports
        ctx.tally = tally
        batch: Sequence = survivors
        producer = f"stage {self._digital_name!r}"
        for stage in self._interior:
            if _drained(batch, producer):
                break
            producer = f"stage {stage.name!r}"
            runs[stage.name] = runs.get(stage.name, 0) + 1
            before = self._ledger.total
            batch = stage.process_batch(batch, ctx)
            if self._energy is not None:
                self._energy.record(stage.name,
                                    self._ledger.total - before)
        if _drained(batch, producer):
            return [], [], []
        return (list(batch), ctx.columns["index"],
                ctx.columns["egress_port"])

    def _egress_pass(self, survivors: list, kept: list[int],
                     ports: list[int], now: float, tally,
                     results: list[ProcessResult | None],
                     counts: dict[Verdict, int]) -> None:
        """Batched per-port AQM admission, fused.

        Port groups form in first-appearance order and each group is
        judged by one ``enqueue_batch`` call, exactly like the staged
        stage — per-port RNG draw order is preserved — with verdicts
        written straight into the result slots.
        """
        processor = self._processor
        runs = self._runtime.stage_runs
        name = self._egress_name
        runs[name] = runs.get(name, 0) + 1
        before = self._ledger.total
        manager = processor.traffic_manager
        gauge_names = self._gauge_names
        staged: dict[int, list[tuple[int, object]]] = {}
        for index, packet, port in zip(kept, survivors, ports):
            staged.setdefault(port, []).append((index, packet))
        for port, entries in staged.items():
            outcomes = manager.enqueue_batch(
                port, [packet for _, packet in entries], now)
            gauge = gauge_names.get(port)
            if gauge is None:
                gauge = gauge_names[port] = f"port{port}.backlog"
            tally.gauge(gauge, manager.backlog(port))
            for (index, packet), outcome in zip(entries, outcomes):
                verdict = ADMISSION_VERDICTS[outcome]
                if verdict is not Verdict.QUEUED:
                    tally.event(DROP_EVENTS[verdict])
                results[index] = ProcessResult(
                    verdict=verdict, port=port, packet=packet)
                counts[verdict] = counts.get(verdict, 0) + 1
        if self._energy is not None:
            self._energy.record(name, self._ledger.total - before)


def compile_processor(processor) -> CompiledPlan:
    """Analyse a processor and build its fused kernel, or refuse.

    Returns a :class:`CompiledPlan`; when ``plan.fused`` the kernel
    reproduces the staged walk byte-for-byte.  Refusals (non-stock
    stage shapes, middleware the kernel cannot reproduce — tracing,
    fault plans, duplicates, anything unknown) record one reason each
    and leave the processor on the staged walk.
    """
    reasons: list[str] = []
    frame_stages = processor._frame_stages
    mats = processor._mat_stages
    parser_stage = frame_stages[0] if len(frame_stages) == 1 else None
    if not isinstance(parser_stage, ParserStage):
        reasons.append(
            "frame walk is not exactly the stock parser stage")
        parser_stage = None
    digital_stage = mats[0] if len(mats) >= 2 else None
    egress_stage = mats[-1] if len(mats) >= 2 else None
    if not isinstance(digital_stage, DigitalMatsStage) \
            or not isinstance(egress_stage, EgressStage):
        reasons.append(
            "match-action walk must open with the digital MATs and "
            "close with egress")
        digital_stage = egress_stage = None
    telemetry: TelemetryMiddleware | None = None
    energy: EnergyAttributionMiddleware | None = None
    supervision: SupervisionMiddleware | None = None
    for mw in processor.runtime.middleware:
        # Exact types only: a subclass may override the hooks the
        # kernel folds away, so it is not provably reproducible.
        if type(mw) is TelemetryMiddleware and telemetry is None:
            telemetry = mw
        elif type(mw) is EnergyAttributionMiddleware and energy is None:
            energy = mw
        elif type(mw) is SupervisionMiddleware and supervision is None:
            supervision = mw
        else:
            reasons.append(f"middleware {type(mw).__name__} needs the "
                           f"staged walk")
    stage_names = tuple(stage.name for stage in processor.runtime.stages)
    if reasons:
        return CompiledPlan(fused=False, reasons=tuple(reasons),
                            stages=stage_names, lowering=LOWERING)
    kernel = FusedSwitchKernel(processor, parser_stage, digital_stage,
                               mats[1:-1], egress_stage, telemetry,
                               energy, supervision)
    return CompiledPlan(fused=True, reasons=(), stages=stage_names,
                        lowering=LOWERING, kernel=kernel)
