"""The sharded multi-switch fabric.

:class:`SwitchFabric` scales one cognitive switch horizontally: N
full ``build_switch`` products (shards), an RSS front end steering
flows across them, and a merged observability surface that presents
the ensemble as a single processor.

**Replay identity.**  A fabric replay is byte-identical to the serial
walk of the same trace because every divergence channel is closed:

* chunking happens at the *serial* chunk boundaries first, and each
  scattered sub-chunk runs as a single admission chunk — so per-chunk
  dedup sets and cache probe sequences partition cleanly (steering is
  flow-consistent: all packets of a flow share a shard);
* the energy ledger books integer counts of fixed quanta and merges
  exactly (:class:`~repro.energy.ledger.ExactJoules`), so summed
  shard ledgers equal the serial ledger bit-for-bit;
* telemetry is pure counters that sum, and results scatter back to
  their original positions.

The guarantee holds in the no-eviction flow-cache regime (caches
large enough that LRU never evicts); under eviction pressure a
per-shard LRU can differ from the global one — throughput, not
identity, is the contract there.

**Generation purity.**  One lock orders chunk dispatch against
transaction commits: a chunk begins and finishes on all its shards
under the lock, and a commit flips all shards under the same lock, so
no chunk can observe two fabric generations.  Within a chunk the
worker shards still run in parallel — the lock serialises *chunks
against commits*, not shard against shard.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.dataplane.fastpath import PacketBatch
from repro.dataplane.results import ProcessResult, Verdict
from repro.fabric.controller import FabricController
from repro.fabric.rss import ToeplitzRSS
from repro.fabric.shards import (
    VERDICTS,
    InProcessShard,
    merge_ledgers,
    merge_telemetry,
)
from repro.fabric.workers import ShardWorkerError, WorkerShard
from repro.simnet.workloads import ChunkColumns

__all__ = ["SwitchFabric"]

_MODES = ("in_process", "multiprocessing")

#: ChunkColumns field order — scatter slices all of them per shard.
_COLUMN_FIELDS = ("times_s", "sizes_bytes", "flow_ids", "priorities",
                  "src_ip", "dst_ip", "src_port", "dst_port",
                  "protocol", "has_dst")


class _MergedFlowCacheView:
    """The summed hits/misses of all shard flow caches."""

    __slots__ = ("hits", "misses", "entries")

    def __init__(self, snapshots) -> None:
        self.hits = sum(s["cache_hits"] for s in snapshots)
        self.misses = sum(s["cache_misses"] for s in snapshots)
        self.entries = sum(s["cache_entries"] for s in snapshots)

    def __len__(self) -> int:
        return self.entries


class _DispatchLock:
    """The chunk-dispatch lock, poisoned by the first worker failure.

    A failed shard may leave its siblings holding replies nobody will
    read, so after a :class:`ShardWorkerError` every later dispatch
    raises instead of desynchronising (or hanging on) a pipe.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.failure: ShardWorkerError | None = None

    def __enter__(self) -> None:
        self._lock.acquire()
        if self.failure is not None:
            self._lock.release()
            raise ShardWorkerError("fabric unusable: a shard worker failed",
                                   self.failure.worker_traceback)

    def __exit__(self, exc_type, exc, tb) -> None:
        if isinstance(exc, ShardWorkerError):
            self.failure = exc
        self._lock.release()


class SwitchFabric:
    """N shard pipelines behind one RSS front end.

    Parameters
    ----------
    shard_factory:
        Zero-argument callable building one complete processor (a
        ``build_switch`` product).  Called once per shard; in
        multiprocessing mode it runs inside the forked worker, so it
        may close over unpicklable state.
    n_shards:
        Number of shard pipelines.
    mode:
        ``"in_process"`` (shards in the caller's process, serial per
        chunk) or ``"multiprocessing"`` (one forked worker process
        per shard, parallel within each chunk, columns over shared
        memory).
    rss:
        Optional pre-built :class:`ToeplitzRSS`; defaults to the
        symmetric key with a 128-entry round-robin indirection table.
    """

    def __init__(self, shard_factory, n_shards: int, *,
                 mode: str = "in_process",
                 rss: ToeplitzRSS | None = None) -> None:
        if n_shards < 1:
            raise ValueError(f"need at least one shard: {n_shards!r}")
        if mode not in _MODES:
            raise ValueError(f"unknown mode {mode!r}; choose from {_MODES}")
        if rss is not None and rss.n_shards != n_shards:
            raise ValueError(
                f"rss steers {rss.n_shards} shards, fabric has {n_shards}")
        self.n_shards = n_shards
        self.mode = mode
        self.rss = rss or ToeplitzRSS(n_shards)
        shard_cls = (WorkerShard if mode == "multiprocessing"
                     else InProcessShard)
        self.shards = [shard_cls(shard_factory) for _ in range(n_shards)]
        self.n_ports = self.shards[0].n_ports
        self.controller = FabricController(self)
        self._lock = _DispatchLock()
        self._generation = 0
        self._hashed_packets = 0
        self._per_shard_packets = np.zeros(n_shards, dtype=np.int64)
        self._steering_seconds = 0.0
        self._dequeue_cursor = [0] * self.n_ports
        self._closed = False

    # ------------------------------------------------------------------
    # Steering
    # ------------------------------------------------------------------
    def _steer(self, src_ip, dst_ip, src_port, dst_port) -> np.ndarray:
        start = time.perf_counter()
        shard_ids = self.rss.shard_of_columns(src_ip, dst_ip,
                                              src_port, dst_port)
        self._steering_seconds += time.perf_counter() - start
        self._hashed_packets += len(shard_ids)
        np.add.at(self._per_shard_packets,
                  np.asarray(shard_ids, dtype=np.intp), 1)
        return shard_ids

    # ------------------------------------------------------------------
    # Packet-object path
    # ------------------------------------------------------------------
    def process(self, packet, now: float = 0.0) -> ProcessResult:
        """Steer and process one packet."""
        return self.process_batch([packet], now=now)[0]

    def process_batch(self, packets, now: float = 0.0,
                      chunk_size: int = 4096) -> list[ProcessResult]:
        """Steer and process a batch, results in input order.

        The batch is cut at the *serial* chunk boundaries first; each
        chunk is then scattered across the shards and gathered back
        before the next chunk starts, exactly mirroring the serial
        admission loop.
        """
        packets = list(packets)
        results: list[ProcessResult | None] = [None] * len(packets)
        step = max(int(chunk_size), 1)
        for start in range(0, len(packets), step):
            chunk = packets[start:start + step]
            batch = PacketBatch(chunk)
            shard_ids = self._steer(batch.src_ip, batch.dst_ip,
                                    batch.src_port, batch.dst_port)
            self._dispatch_packets(chunk, shard_ids, now, results, start)
        return results  # type: ignore[return-value]

    def _dispatch_packets(self, chunk, shard_ids, now, results,
                          base: int) -> None:
        groups: dict[int, list[int]] = {}
        for row, shard in enumerate(shard_ids.tolist()):
            groups.setdefault(shard, []).append(row)
        with self._lock:
            for shard, rows in groups.items():
                self.shards[shard].begin_packets(
                    [chunk[r] for r in rows], now)
            for shard, rows in groups.items():
                codes, ports = self.shards[shard].finish()
                for row, code, port in zip(rows, codes.tolist(),
                                           ports.tolist()):
                    results[base + row] = ProcessResult(
                        verdict=VERDICTS[code],
                        port=None if port < 0 else int(port),
                        packet=chunk[row])

    # ------------------------------------------------------------------
    # Columnar path
    # ------------------------------------------------------------------
    def process_columns(self, columns: ChunkColumns, now: float = 0.0,
                        chunk_size: int | None = None
                        ) -> tuple[np.ndarray, np.ndarray]:
        """Steer and process SoA columns; (verdict codes, ports).

        Verdict codes index :data:`~repro.fabric.shards.VERDICTS`;
        ports are ``int16`` with ``-1`` for no egress.  In
        multiprocessing mode each shard's row slice crosses the
        process boundary through shared memory.
        """
        n = len(columns.times_s)
        codes = np.zeros(n, dtype=np.uint8)
        ports = np.full(n, -1, dtype=np.int16)
        step = max(int(chunk_size), 1) if chunk_size else max(n, 1)
        for start in range(0, n, step):
            stop = min(start + step, n)
            sl = slice(start, stop)
            shard_ids = self._steer(columns.src_ip[sl], columns.dst_ip[sl],
                                    columns.src_port[sl],
                                    columns.dst_port[sl])
            self._dispatch_columns(columns, sl, shard_ids, now,
                                   codes, ports)
        return codes, ports

    def _dispatch_columns(self, columns, sl, shard_ids, now,
                          codes, ports) -> None:
        rows_of: dict[int, np.ndarray] = {
            int(shard): np.flatnonzero(shard_ids == shard)
            for shard in np.unique(shard_ids)}
        with self._lock:
            for shard, rows in rows_of.items():
                sub = {name: getattr(columns, name)[sl][rows]
                       for name in _COLUMN_FIELDS}
                self.shards[shard].begin_columns(sub, now)
            for shard, rows in rows_of.items():
                shard_codes, shard_ports = self.shards[shard].finish()
                codes[sl.start + rows] = shard_codes
                ports[sl.start + rows] = shard_ports

    # ------------------------------------------------------------------
    # Transactions (driven by the controller)
    # ------------------------------------------------------------------
    def _stage_on_all(self, ops) -> None:
        # Under the lock for pipe discipline, not for semantics: a
        # worker shard's command pipe is strictly FIFO, so staging
        # must not interleave with an in-flight chunk's begin/finish
        # pair.  Staged ops remain invisible until the flip either
        # way.
        with self._lock:
            for shard in self.shards:
                shard.stage(ops)

    def _flip_all(self) -> int:
        with self._lock:
            for shard in self.shards:
                shard.flip()
            self._generation += 1
            return self._generation

    @property
    def generation(self) -> int:
        return self._generation

    # ------------------------------------------------------------------
    # Merged observability
    # ------------------------------------------------------------------
    def _snapshots(self) -> list[dict]:
        with self._lock:
            return [shard.snapshot() for shard in self.shards]

    @property
    def processed(self) -> int:
        return sum(s["processed"] for s in self._snapshots())

    @property
    def verdict_counts(self) -> dict[Verdict, int]:
        counts = {v: 0 for v in VERDICTS}
        for snap in self._snapshots():
            for value, count in snap["verdict_counts"].items():
                counts[Verdict(value)] += count
        return counts

    @property
    def flow_cache(self) -> _MergedFlowCacheView:
        return _MergedFlowCacheView(self._snapshots())

    def telemetry_snapshot(self) -> dict:
        return merge_telemetry(
            [s["telemetry"] for s in self._snapshots()])

    def energy_ledger(self):
        return merge_ledgers(s["ledger"] for s in self._snapshots())

    def energy_total_j(self) -> float:
        return self.energy_ledger().total

    def energy_breakdown(self) -> dict[str, float]:
        ledger = self.energy_ledger()
        return {account: ledger.account(account)
                for account in ledger.breakdown()}

    def slice_extremes(self) -> tuple[float, float, int]:
        """(max delay EWMA, max PDP, max backlog) across all shards."""
        with self._lock:
            extremes = [shard.extremes() for shard in self.shards]
        return (max(e[0] for e in extremes),
                max(e[1] for e in extremes),
                max(e[2] for e in extremes))

    def robustness_stats(self) -> dict:
        snaps = self._snapshots()
        return {
            "fallback_events": sum(s["fallback_events"] for s in snaps),
            "retries": sum(s["retries"] for s in snaps),
            "degraded_tables": sorted(
                f"shard{i}.{table}"
                for i, s in enumerate(snaps)
                for table in s["degraded_tables"]),
        }

    def poll_metrics(self) -> dict:
        """One fabric-wide metrics document (the NMS poll surface)."""
        snaps = self._snapshots()
        per_shard = self._per_shard_packets.tolist()
        mean = (self._hashed_packets / self.n_shards
                if self._hashed_packets else 0.0)
        return {
            "generation": self._generation,
            "mode": self.mode,
            "n_shards": self.n_shards,
            "processed": sum(s["processed"] for s in snaps),
            "telemetry": merge_telemetry([s["telemetry"] for s in snaps]),
            "energy_total_j": merge_ledgers(
                s["ledger"] for s in snaps).total,
            "shards": [{"processed": s["processed"],
                        "cache_hits": s["cache_hits"],
                        "cache_misses": s["cache_misses"],
                        "degraded_tables": list(s["degraded_tables"]),
                        # Per-shard AQM extremes and drop counts: the
                        # sensing surface of the fleet learning loop.
                        "aqm_drops": s["verdict_counts"].get(
                            "dropped_aqm", 0),
                        "delay_ewma_s": s["extremes"][0],
                        "last_pdp": s["extremes"][1],
                        "backlog": s["extremes"][2]}
                       for s in snaps],
            "steering": {
                "hashed_packets": self._hashed_packets,
                "per_shard_packets": per_shard,
                "imbalance": (max(per_shard) / mean) if mean else 1.0,
                "steering_seconds": self._steering_seconds,
            },
        }

    # ------------------------------------------------------------------
    # Egress service
    # ------------------------------------------------------------------
    def dequeue(self, port: int, now: float):
        """Serve one packet from a fabric port.

        Shards are visited round-robin per port (cursor persists
        across calls) so no shard's queue starves the others.
        """
        with self._lock:
            cursor = self._dequeue_cursor[port]
            for step in range(self.n_shards):
                shard = (cursor + step) % self.n_shards
                packet = self.shards[shard].dequeue(port, now)
                if packet is not None:
                    self._dequeue_cursor[port] = \
                        (shard + 1) % self.n_shards
                    return packet
            self._dequeue_cursor[port] = cursor
            return None

    def drain(self, port: int, now: float, limit: int | None = None
              ) -> list:
        """Dequeue from a port until empty (or ``limit`` packets)."""
        out = []
        while limit is None or len(out) < limit:
            packet = self.dequeue(port, now)
            if packet is None:
                break
            out.append(packet)
        return out

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for shard in self.shards:
            shard.close()

    def __enter__(self) -> "SwitchFabric":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
