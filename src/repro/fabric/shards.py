"""Shard plumbing shared by both fabric execution modes.

A *shard* is one full ``build_switch`` product — its own runtime,
flow cache, energy ledger and telemetry domain — hidden behind a
small command surface the fabric drives:

* ``begin_packets`` / ``begin_columns`` then ``finish`` — process one
  sub-chunk (always as a single admission chunk; the fabric chunks at
  serial boundaries *before* scattering, which is what keeps dedup
  sets, cache sequences and energy multisets identical to the serial
  walk);
* ``stage`` / ``flip`` — the two phases of a transactional fabric
  programming;
* ``snapshot`` / ``extremes`` / ``dequeue`` — observability and
  egress service.

Everything a shard sends back is plain data (verdict codes, port
integers, picklable snapshots), so the in-process shard here and the
worker-process shard in :mod:`repro.fabric.workers` are
interchangeable behind the same protocol.
"""

from __future__ import annotations

import numpy as np

from repro.dataplane.results import ProcessResult, Verdict
from repro.energy.ledger import EnergyLedger
from repro.simnet.workloads import ChunkColumns

__all__ = [
    "FABRIC_OPS",
    "InProcessShard",
    "VERDICTS",
    "apply_op",
    "merge_telemetry",
    "process_columns_on",
    "process_packets_on",
    "snapshot_of",
]

#: Stable verdict order: a verdict's wire code is its index here.
VERDICTS: tuple[Verdict, ...] = tuple(Verdict)
_CODE_OF: dict[Verdict, int] = {v: i for i, v in enumerate(VERDICTS)}

#: Programming operations the fabric controller may stage.  Every op
#: is a picklable ``(name, args)`` pair applied identically on every
#: shard, so one committed transaction leaves all shards in the same
#: configuration.
FABRIC_OPS = frozenset({
    "add_route",
    "add_firewall_rule",
    "invalidate_flow_cache",
    "retarget",
    "reprogram_intended",
})


def apply_op(processor, op: tuple[str, tuple]) -> None:
    """Apply one staged programming op to a shard's processor."""
    name, args = op
    if name == "add_route":
        processor.add_route(*args)
    elif name == "add_firewall_rule":
        processor.add_firewall_rule(*args)
    elif name == "invalidate_flow_cache":
        processor.invalidate_flow_cache()
    elif name == "retarget":
        for port in range(processor.n_ports):
            processor.traffic_manager.aqm(port).analog.retarget(*args)
    elif name == "reprogram_intended":
        for port in range(processor.n_ports):
            processor.traffic_manager.aqm(port).analog \
                .reprogram_intended(*args)
    else:
        raise ValueError(f"unknown fabric op {name!r}; "
                         f"known: {sorted(FABRIC_OPS)}")


# ----------------------------------------------------------------------
# Processing kernels (one code path for both modes)
# ----------------------------------------------------------------------
def _encode(results) -> tuple[np.ndarray, np.ndarray]:
    codes = np.fromiter((_CODE_OF[r.verdict] for r in results),
                        dtype=np.uint8, count=len(results))
    ports = np.fromiter((-1 if r.port is None else r.port
                         for r in results),
                        dtype=np.int16, count=len(results))
    return codes, ports


def process_packets_on(processor, packets, now: float
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Run one sub-chunk of packets as a single admission chunk."""
    results = processor.process_batch(packets, now=now,
                                      chunk_size=max(len(packets), 1))
    return _encode(results)


def process_columns_on(processor, columns: dict, now: float
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Run one sub-chunk of SoA columns as a single admission chunk.

    ``columns`` maps the :class:`~repro.simnet.workloads.ChunkColumns`
    schema to row-sliced arrays; materialisation goes through
    ``ChunkColumns.to_packets`` so a scattered chunk builds exactly
    the packets the serial walk would have built.
    """
    packets = ChunkColumns(**columns).to_packets()
    return process_packets_on(processor, packets, now)


def decode_results(codes: np.ndarray, ports: np.ndarray) -> list:
    """Wire codes back to :class:`ProcessResult` values."""
    return [ProcessResult(verdict=VERDICTS[code],
                          port=None if port < 0 else int(port))
            for code, port in zip(codes.tolist(), ports.tolist())]


# ----------------------------------------------------------------------
# Observability payloads
# ----------------------------------------------------------------------
def snapshot_of(processor) -> dict:
    """One shard's complete observable state, as picklable data."""
    cache = processor.flow_cache
    return {
        "ledger": processor.ledger,
        "telemetry": processor.telemetry.snapshot(),
        "verdict_counts": {v.value: c for v, c
                           in processor.verdict_counts.items()},
        "processed": processor.processed,
        "cache_hits": cache.hits if cache is not None else 0,
        "cache_misses": cache.misses if cache is not None else 0,
        "cache_entries": len(cache) if cache is not None else 0,
        "extremes": processor.slice_extremes(),
        **processor.robustness_stats(),
    }


def merge_telemetry(snapshots: list[dict]) -> dict:
    """Fold per-shard telemetry snapshots into one fabric view.

    Tables and events are pure counters and sum exactly; hit rates
    are recomputed from the summed counters.  Gauges are summed too:
    the only stock gauges are per-port backlogs, and a fabric port's
    backlog *is* the sum of its shards' backlogs.
    """
    tables: dict[str, list] = {}
    gauges: dict[str, float] = {}
    events: dict[str, int] = {}
    for snap in snapshots:
        for name, stats in snap["tables"].items():
            entry = tables.setdefault(name, [0, 0, {}])
            entry[0] += stats["lookups"]
            entry[1] += stats["hits"]
            for verdict, count in stats["verdicts"].items():
                entry[2][verdict] = entry[2].get(verdict, 0) + count
        for name, value in snap["gauges"].items():
            gauges[name] = gauges.get(name, 0.0) + value
        for name, count in snap["events"].items():
            events[name] = events.get(name, 0) + count
    return {
        "tables": {name: {"lookups": lookups,
                          "hits": hits,
                          "hit_rate": hits / lookups if lookups else 0.0,
                          "verdicts": verdicts}
                   for name, (lookups, hits, verdicts)
                   in tables.items()},
        "gauges": gauges,
        "events": events,
    }


def merge_ledgers(ledgers) -> EnergyLedger:
    """Fold shard ledgers into one (exact, partition-invariant)."""
    merged = EnergyLedger()
    for ledger in ledgers:
        merged.merge(ledger)
    return merged


# ----------------------------------------------------------------------
# The in-process execution mode
# ----------------------------------------------------------------------
class InProcessShard:
    """A shard living in the caller's process (the test/debug mode)."""

    def __init__(self, shard_factory) -> None:
        self.processor = shard_factory()
        self.n_ports = self.processor.n_ports
        self._staged: list[tuple[str, tuple]] = []
        self._pending: tuple[np.ndarray, np.ndarray] | None = None

    # -- processing ----------------------------------------------------
    def begin_packets(self, packets, now: float) -> None:
        self._pending = process_packets_on(self.processor, packets, now)

    def begin_columns(self, columns: dict, now: float) -> None:
        self._pending = process_columns_on(self.processor, columns, now)

    def finish(self) -> tuple[np.ndarray, np.ndarray]:
        if self._pending is None:
            raise RuntimeError("finish() without a pending chunk")
        pending, self._pending = self._pending, None
        return pending

    # -- transactional programming ------------------------------------
    def stage(self, ops) -> None:
        for op in ops:
            if op[0] not in FABRIC_OPS:
                raise ValueError(f"unknown fabric op {op[0]!r}")
        self._staged.extend(ops)

    def flip(self) -> None:
        staged, self._staged = self._staged, []
        for op in staged:
            apply_op(self.processor, op)

    @property
    def staged_ops(self) -> int:
        return len(self._staged)

    # -- observability / egress ---------------------------------------
    def snapshot(self) -> dict:
        return snapshot_of(self.processor)

    def extremes(self) -> tuple[float, float, int]:
        return self.processor.slice_extremes()

    def dequeue(self, port: int, now: float):
        return self.processor.dequeue(port, now)

    def close(self) -> None:
        self._pending = None
