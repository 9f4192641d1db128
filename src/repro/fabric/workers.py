"""Worker-process shards: fork + pipes + shared-memory columns.

The multiprocessing execution mode gives every shard its own OS
process.  The parent keeps one duplex :class:`~multiprocessing.Pipe`
per worker and drives the same begin/finish, stage/flip protocol as
:class:`~repro.fabric.shards.InProcessShard` — the fabric cannot tell
the modes apart.

Transport choices, in order of what matters:

* **fork start method** — the shard factory is a closure over the
  switch spec (and possibly an RNG seed recipe); fork inherits it
  without pickling.
* **egress rides look-ahead runs** — one pipe round trip costs tens
  of microseconds, more than serving a packet.  On a miss,
  ``dequeue`` sends one ``("peek", acks, port, now, k)``: the worker
  returns, without removing them, the next ``k`` packets its
  ``dequeue`` would serve (strict priority, then FIFO), and the
  parent serves them one call at a time.  What the parent served
  goes back as ordered ``(port, now, packet_ids)`` acks, which the
  worker replays as real ``dequeue`` calls — asserting each popped
  id — before it runs any other command; every other command sends
  the pending acks first (a reply-less ``("ack", runs)``) and drops
  the runs, and so does a change of ``now``.  The worker therefore
  applies exactly the caller's dequeues, in the caller's order, at
  the caller's times.  A run shorter than ``k`` means the port is
  empty at that ``now``; ``k`` starts from what the port served in
  its previous run and doubles when a run is used up.  A port whose
  AQM may drop at the head (CoDel, or a degraded
  :class:`~repro.robustness.degradation.DegradingAQM` serving its
  CoDel fallback) cannot be peeked exactly: the worker answers its
  peek with one real dequeue, as before.
* **SoA columns ride shared memory** — a scatter materialises each
  shard's row slice into one ``multiprocessing.shared_memory`` block
  (column-major: contiguous per-column segments described by a small
  ``(name, dtype, length, offset)`` manifest sent over the pipe).
  Only verdict codes (1 byte/packet) and egress ports (2 B/packet)
  come back.
* **workers copy, parents unlink** — a worker ``np.frombuffer().copy()``s
  its columns and closes the block immediately; the parent unlinks
  after ``finish``, on every exit path, so no segment outlives its
  chunk.
* **failures are loud** — a worker that raises replies with its
  traceback and exits; the parent raises :class:`ShardWorkerError`
  carrying it, and the owning fabric refuses every later call.

Results are byte-identical to the in-process mode because both run
the exact same shard kernels from :mod:`repro.fabric.shards`.
"""

from __future__ import annotations

import multiprocessing
import traceback
from collections import deque
from multiprocessing import resource_tracker, shared_memory
from typing import NoReturn

import numpy as np

from repro.fabric.shards import (
    process_columns_on,
    process_packets_on,
    snapshot_of,
    apply_op,
    FABRIC_OPS,
)

__all__ = ["ShardWorkerError", "WorkerShard"]


# ----------------------------------------------------------------------
# Shared-memory column codec
# ----------------------------------------------------------------------
def columns_to_shm(columns: dict) -> tuple[shared_memory.SharedMemory, list]:
    """Pack column arrays into one shared-memory block.

    Returns the block (caller owns close+unlink) and the manifest
    ``[(name, dtype_str, length, offset), ...]`` a worker needs to
    reconstruct the arrays.
    """
    manifest = []
    offset = 0
    arrays = {}
    for name, values in columns.items():
        arr = np.ascontiguousarray(values)
        manifest.append((name, arr.dtype.str, len(arr), offset))
        arrays[name] = arr
        offset += arr.nbytes
    shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
    for (name, _, _, start), arr in zip(manifest, arrays.values()):
        shm.buf[start:start + arr.nbytes] = arr.tobytes()
    return shm, manifest


def columns_from_shm(name: str, manifest: list) -> dict:
    """Rebuild (and own) column arrays from a shared-memory block."""
    shm = shared_memory.SharedMemory(name=name)
    try:
        columns = {}
        for col, dtype_str, length, offset in manifest:
            dtype = np.dtype(dtype_str)
            end = offset + length * dtype.itemsize
            columns[col] = np.frombuffer(
                shm.buf[offset:end], dtype=dtype).copy()
        return columns
    finally:
        shm.close()


# ----------------------------------------------------------------------
# Worker loop
# ----------------------------------------------------------------------
class ShardWorkerError(RuntimeError):
    """A shard worker failed; carries the worker's traceback.

    The worker process has exited.  The fabric that owned it refuses
    every later call with this error, because its other shards may
    hold replies the fabric will never read.
    """

    def __init__(self, message: str, worker_traceback: str) -> None:
        super().__init__(f"{message}\n--- worker traceback ---\n"
                         f"{worker_traceback}")
        self.worker_traceback = worker_traceback


def _replay_acks(processor, runs) -> None:
    """Apply the dequeues a parent served from a look-ahead run.

    Each run is ``(port, now, packet_ids)`` in the order the parent
    served them; each becomes a real ``processor.dequeue(port, now)``
    that must pop exactly the packet the parent served.
    """
    for port, now, packet_ids in runs:
        for packet_id in packet_ids:
            packet = processor.dequeue(port, now)
            if packet is None or packet.packet_id != packet_id:
                raise RuntimeError(
                    f"egress ack mismatch on port {port} at t={now!r}: "
                    f"served packet {packet_id}, the shard dequeued "
                    f"{packet!r}")


def _worker_main(conn, shard_factory) -> None:
    """One shard's process: build the switch, serve pipe commands.

    Every reply is ``("ok", value)``.  ``ack`` and ``close`` get no
    reply.  The first exception goes back as ``("error",
    traceback)`` — after a reply-less ``ack`` too, where the parent
    reads it in place of its next reply — and ends the worker.
    """
    try:
        processor = shard_factory()
        conn.send(("ok", processor.n_ports))
        staged: list = []
        while True:
            command = conn.recv()
            kind = command[0]
            if kind == "ack":
                _replay_acks(processor, command[1])
                continue
            if kind == "close":
                return
            if kind == "peek":
                _, runs, port, now, limit = command
                _replay_acks(processor, runs)
                ahead = processor.traffic_manager.peek(port, limit)
                # A head-dropping port is served for real, one packet.
                reply = (("ahead", ahead) if ahead is not None
                         else ("served", processor.dequeue(port, now)))
            elif kind == "packets":
                _, packets, now = command
                codes, ports = process_packets_on(processor, packets, now)
                reply = (codes.tobytes(), ports.tobytes())
            elif kind == "columns":
                _, shm_name, manifest, now = command
                columns = columns_from_shm(shm_name, manifest)
                codes, ports = process_columns_on(processor, columns, now)
                reply = (codes.tobytes(), ports.tobytes())
            elif kind == "stage":
                staged.extend(command[1])
                reply = len(staged)
            elif kind == "flip":
                ops, staged = staged, []
                for op in ops:
                    apply_op(processor, op)
                reply = len(ops)
            elif kind == "snapshot":
                reply = snapshot_of(processor)
            elif kind == "extremes":
                reply = processor.slice_extremes()
            else:
                raise ValueError(f"unknown worker command {kind!r}")
            conn.send(("ok", reply))
    except Exception:
        try:
            conn.send(("error", traceback.format_exc()))
        except OSError:  # the parent is gone: nobody left to tell
            pass
    finally:
        conn.close()


class _Run:
    """One port's look-ahead: packets the worker would serve next."""

    __slots__ = ("packets", "limit", "complete", "served")

    def __init__(self) -> None:
        self.packets: deque = deque()
        self.limit = 0
        #: The worker had fewer than ``limit``: the port ends here.
        self.complete = False
        #: Packets served from this port at the current ``now``.
        self.served = 0


class WorkerShard:
    """A shard in its own forked process, driven over a pipe.

    Matches the :class:`InProcessShard` surface; ``begin_*`` sends the
    command and returns immediately, so N worker shards process their
    slices of one chunk in parallel while the parent waits in
    ``finish``.

    ``dequeue`` serves from a per-port look-ahead run (see the module
    docstring) and records what it served as ``(port, now,
    packet_ids)`` acks, which reach the worker ahead of its next
    command.
    """

    def __init__(self, shard_factory) -> None:
        # Start the resource tracker *before* forking so every worker
        # inherits the same tracker.  Attach-side registrations are
        # then idempotent set-adds against the parent's create-side
        # registration, and the parent's unlink clears the one entry;
        # a worker that forked trackerless would spawn a private
        # tracker and "clean up" segments the parent already unlinked.
        resource_tracker.ensure_running()
        ctx = multiprocessing.get_context("fork")
        self._conn, child = ctx.Pipe()
        self._process = ctx.Process(
            target=_worker_main, args=(child, shard_factory), daemon=True)
        self._process.start()
        child.close()
        self._failure: ShardWorkerError | None = None
        self._pending_shm: shared_memory.SharedMemory | None = None
        self._in_flight = False
        self._staged_count = 0
        # Egress look-ahead: runs valid at ``_ahead_now``, the served
        # packets not yet acknowledged, and each port's next run size.
        self._ahead: dict[int, _Run] = {}
        self._ahead_now: float | None = None
        self._acks: list[tuple[int, float, list[int]]] = []
        self.n_ports = self._recv()
        self._limits = [1] * self.n_ports

    # -- pipe discipline ----------------------------------------------
    def _fail(self, message: str,
              worker_traceback: str | None = None) -> NoReturn:
        """Poison this shard, release its segment and raise."""
        if worker_traceback is None:
            worker_traceback = self._left_traceback()
        self._release_shm()
        self._in_flight = False
        self._ahead.clear()
        self._failure = ShardWorkerError(message, worker_traceback)
        raise self._failure

    def _left_traceback(self) -> str:
        """The traceback a dead worker left in the pipe, if any."""
        try:
            while self._conn.poll(1.0):
                status, value = self._conn.recv()
                if status == "error":
                    return value
        except (EOFError, OSError):
            pass
        self._process.join(timeout=1.0)
        return f"(none: the worker exited with {self._process.exitcode})"

    def _send(self, message) -> None:
        if self._failure is not None:
            raise ShardWorkerError("shard worker already failed",
                                   self._failure.worker_traceback)
        try:
            self._conn.send(message)
        except OSError:
            self._fail(f"shard worker gone before {message[0]!r}")

    def _recv(self):
        try:
            status, value = self._conn.recv()
        except (EOFError, OSError):
            self._fail("shard worker died without a reply")
        if status == "error":
            self._fail("shard worker raised", value)
        return value

    def _flush(self) -> None:
        """Acknowledge served packets and forget every look-ahead."""
        self._drop_ahead()
        if self._acks:
            acks, self._acks = self._acks, []
            self._send(("ack", acks))

    def _drop_ahead(self) -> None:
        for port, run in self._ahead.items():
            self._limits[port] = max(run.served, 1)
        self._ahead.clear()

    def _release_shm(self) -> None:
        if self._pending_shm is not None:
            shm, self._pending_shm = self._pending_shm, None
            shm.close()
            shm.unlink()

    # -- processing ----------------------------------------------------
    def begin_packets(self, packets, now: float) -> None:
        self._flush()
        self._send(("packets", packets, now))
        self._in_flight = True

    def begin_columns(self, columns: dict, now: float) -> None:
        # Scatter before acking: the ack sets the worker replaying, and
        # on a small host it would compete with this copy for a core.
        self._pending_shm, manifest = columns_to_shm(columns)
        self._flush()
        self._send(("columns", self._pending_shm.name, manifest, now))
        self._in_flight = True

    def finish(self) -> tuple[np.ndarray, np.ndarray]:
        if not self._in_flight:
            raise RuntimeError("finish() without a pending chunk")
        try:
            code_bytes, port_bytes = self._recv()
        finally:
            self._in_flight = False
            self._release_shm()
        return (np.frombuffer(code_bytes, dtype=np.uint8),
                np.frombuffer(port_bytes, dtype=np.int16))

    def _call(self, *command):
        self._flush()
        self._send(command)
        return self._recv()

    # -- transactional programming ------------------------------------
    def stage(self, ops) -> None:
        ops = list(ops)
        for op in ops:
            if op[0] not in FABRIC_OPS:
                raise ValueError(f"unknown fabric op {op[0]!r}")
        self._staged_count = self._call("stage", ops)

    def flip(self) -> None:
        self._call("flip")
        self._staged_count = 0

    @property
    def staged_ops(self) -> int:
        return self._staged_count

    # -- observability / egress ---------------------------------------
    def snapshot(self) -> dict:
        return self._call("snapshot")

    def extremes(self) -> tuple[float, float, int]:
        return self._call("extremes")

    def dequeue(self, port: int, now: float):
        """Serve one packet, from the port's look-ahead run if it can.

        A run is fetched when the port has none at this ``now`` or
        has used one up: one ``peek`` round trip, sized by what the
        port served last time and doubled on every used-up run.  A
        run shorter than asked for ends the port at this ``now``.
        """
        if now != self._ahead_now:
            self._drop_ahead()
            self._ahead_now = now
        run = self._ahead.get(port)
        if run is None or not (run.packets or run.complete):
            if run is None:
                run, limit = _Run(), self._limits[port]
            else:
                limit = 2 * run.limit
            acks, self._acks = self._acks, []
            self._send(("peek", acks, port, now, limit))
            kind, value = self._recv()
            if kind == "served":
                return value
            run.packets.extend(value)
            run.limit = limit
            run.complete = len(value) < limit
            self._ahead[port] = run
        if not run.packets:
            return None
        packet = run.packets.popleft()
        packet.dequeued_at = now
        run.served += 1
        acks = self._acks
        if acks and acks[-1][0] == port and acks[-1][1] == now:
            acks[-1][2].append(packet.packet_id)
        else:
            acks.append((port, now, [packet.packet_id]))
        return packet

    def close(self) -> None:
        if self._failure is None and self._process.is_alive():
            try:
                self._flush()
                self._conn.send(("close",))
            except (ShardWorkerError, OSError):
                pass
        self._release_shm()
        self._conn.close()
        self._process.join(timeout=5.0)
        if self._process.is_alive():  # pragma: no cover - stuck worker
            self._process.terminate()
            self._process.join(timeout=5.0)
