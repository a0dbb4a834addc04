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
* **SoA columns ride shared memory** — a scatter materialises each
  shard's row slice of the batch into one ``multiprocessing.shared_memory``
  block (column-major: contiguous per-column segments described by a
  small ``(name, dtype, length, offset)`` manifest sent over the
  pipe).  Only verdict codes (1 byte/packet) and egress ports
  (2 B/packet) come back.
* **Egress is one round trip per shard per drain** — the first
  ``queued`` query of a drain fetches every port's queued head sizes
  at once; the parent keeps them as an exact mirror (only its own
  commands can change the worker's queues), trims it by each one-way
  ``serve`` count the worker applies before its next command (the
  pipe is FIFO, so ordering holds without a reply), and drops it on
  anything else that touches the queues.
* **workers copy, parents unlink** — a worker ``np.frombuffer().copy()``s
  its columns and closes the block immediately; the parent unlinks
  after ``finish`` so no segment outlives its chunk.

Results are byte-identical to the in-process mode because both run
the exact same shard kernels from :mod:`repro.fabric.shards`.
"""

from __future__ import annotations

import multiprocessing
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.dataplane.fastpath import PacketBatch
from repro.fabric.shards import (
    FABRIC_OPS,
    apply_op,
    process_on,
    queued_on,
    snapshot_of,
)

__all__ = ["WorkerShard"]


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


def _queued_heads(processor, limit: float) -> list:
    """Per port: (replays dequeues, head sizes covering ``limit``,
    whether those sizes are the whole queue)."""
    manager = processor.traffic_manager
    heads = []
    for port in range(manager.n_ports):
        replays, sizes = queued_on(processor, port, limit)
        heads.append((replays, sizes, len(sizes) == manager.backlog(port)))
    return heads


# ----------------------------------------------------------------------
# Worker loop
# ----------------------------------------------------------------------
def _worker_main(conn, shard_factory) -> None:
    """One shard's process: build the switch, serve pipe commands."""
    processor = shard_factory()
    staged: list = []
    conn.send(("ready", processor.traffic_manager.n_ports))
    while True:
        command = conn.recv()
        kind = command[0]
        if kind == "batch":
            _, shm_name, manifest, now = command
            batch = PacketBatch.from_arrays(
                columns_from_shm(shm_name, manifest))
            codes, ports = process_on(processor, batch, now)
            conn.send((codes.tobytes(), ports.tobytes()))
        elif kind == "stage":
            staged.extend(command[1])
            conn.send(("staged", len(staged)))
        elif kind == "flip":
            ops, staged = list(staged), []
            for op in ops:
                apply_op(processor, op)
            conn.send(("flipped", len(ops)))
        elif kind == "snapshot":
            conn.send(snapshot_of(processor))
        elif kind == "extremes":
            conn.send(processor.slice_extremes())
        elif kind == "queued":
            conn.send(_queued_heads(processor, command[1]))
        elif kind == "serve":  # one-way: no reply
            _, port, count, now = command
            processor.traffic_manager.serve_count(port, count, now)
        elif kind == "dequeue":
            _, port, now = command
            conn.send(processor.traffic_manager.dequeue(port, now))
        elif kind == "close":
            conn.send(("closed",))
            conn.close()
            return
        else:  # pragma: no cover - protocol misuse
            raise ValueError(f"unknown worker command {kind!r}")


class WorkerShard:
    """A shard in its own forked process, driven over a pipe.

    Matches the :class:`InProcessShard` surface; ``begin_*`` sends the
    command and returns immediately, so N worker shards process their
    slices of one chunk in parallel while the parent waits in
    ``finish``.
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
        kind, self.n_ports = self._conn.recv()
        if kind != "ready":  # pragma: no cover - handshake violation
            raise RuntimeError(f"worker handshake failed: {kind!r}")
        self._staged_count = 0
        self._pending_shm: shared_memory.SharedMemory | None = None
        self._in_flight = False
        #: Mirror of the worker's queued heads per port (see
        #: :meth:`queued`); None once anything else touched the queues.
        self._heads: list | None = None

    # -- processing ----------------------------------------------------
    def begin(self, batch, now: float) -> None:
        self._heads = None
        shm, manifest = columns_to_shm(batch.arrays())
        self._pending_shm = shm
        self._conn.send(("batch", shm.name, manifest, now))
        self._in_flight = True

    def finish(self) -> tuple[np.ndarray, np.ndarray]:
        if not self._in_flight:
            raise RuntimeError("finish() without a pending chunk")
        code_bytes, port_bytes = self._conn.recv()
        self._in_flight = False
        if self._pending_shm is not None:
            self._pending_shm.close()
            self._pending_shm.unlink()
            self._pending_shm = None
        return (np.frombuffer(code_bytes, dtype=np.uint8),
                np.frombuffer(port_bytes, dtype=np.int16))

    # -- transactional programming ------------------------------------
    def stage(self, ops) -> None:
        ops = list(ops)
        for op in ops:
            if op[0] not in FABRIC_OPS:
                raise ValueError(f"unknown fabric op {op[0]!r}")
        self._conn.send(("stage", ops))
        _, self._staged_count = self._conn.recv()

    def flip(self) -> None:
        self._heads = None
        self._conn.send(("flip",))
        self._conn.recv()
        self._staged_count = 0

    @property
    def staged_ops(self) -> int:
        return self._staged_count

    # -- observability / egress ---------------------------------------
    def snapshot(self) -> dict:
        self._conn.send(("snapshot",))
        return self._conn.recv()

    def extremes(self) -> tuple[float, float, int]:
        self._conn.send(("extremes",))
        return self._conn.recv()

    def queued(self, port: int, limit: float
               ) -> tuple[bool, np.ndarray]:
        """The port's head sizes, from the mirror while it covers
        ``limit`` (every size but the last already reaches it, or it
        is the whole queue), else fetched for all ports at once."""
        head = None if self._heads is None else self._heads[port]
        if head is None or not (head[2] or head[1][:-1].sum() >= limit):
            self._conn.send(("queued", limit))
            self._heads = self._conn.recv()
            head = self._heads[port]
        return head[0], head[1]

    def serve(self, port: int, count: int, now: float) -> None:
        self._conn.send(("serve", port, count, now))
        replays, sizes, whole = self._heads[port]
        self._heads[port] = (replays, sizes[count:], whole)

    def dequeue(self, port: int, now: float):
        self._heads = None
        self._conn.send(("dequeue", port, now))
        return self._conn.recv()

    def close(self) -> None:
        if self._process.is_alive():
            try:
                self._conn.send(("close",))
                self._conn.recv()
            except (BrokenPipeError, EOFError):  # pragma: no cover
                pass
        self._conn.close()
        self._process.join(timeout=5.0)
        if self._process.is_alive():  # pragma: no cover - stuck worker
            self._process.terminate()
            self._process.join(timeout=5.0)
