"""Shard plumbing shared by both fabric execution modes.

A *shard* is one full ``build_switch`` product — its own runtime,
flow cache, energy ledger and telemetry domain — hidden behind a
small command surface the fabric drives:

* ``begin`` then ``finish`` — process one sub-chunk of a
  :class:`~repro.dataplane.fastpath.PacketBatch` (always as a single
  admission chunk; the fabric chunks at serial boundaries *before*
  scattering, which is what keeps dedup sets, cache sequences and
  energy multisets identical to the serial walk);
* ``stage`` / ``flip`` — the two phases of a transactional fabric
  programming;
* ``snapshot`` / ``extremes`` — observability;
* ``queued`` / ``serve`` / ``dequeue`` — egress service: the fabric
  reads each shard's queued sizes for a port, computes its
  round-robin interleave under the byte credit, and tells each shard
  how many rows to serve (``dequeue`` is the per-packet reference,
  used while a port's AQM may drop at the head).

Everything a shard sends back is plain data (verdict codes, port
integers, size arrays, picklable snapshots), so the in-process shard
here and the worker-process shard in :mod:`repro.fabric.workers` are
interchangeable behind the same protocol.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "FABRIC_OPS",
    "InProcessShard",
    "apply_op",
    "merged",
    "process_on",
    "queued_on",
    "snapshot_of",
]

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


def _analog(aqm):
    """The analog AQM inside a possibly-degradation-wrapped table."""
    return getattr(aqm, "analog", aqm)


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
        manager = processor.traffic_manager
        for port in range(manager.n_ports):
            _analog(manager.aqm(port)).retarget(*args)
    elif name == "reprogram_intended":
        manager = processor.traffic_manager
        for port in range(manager.n_ports):
            _analog(manager.aqm(port)).reprogram_intended(*args)
    else:
        raise ValueError(f"unknown fabric op {name!r}; "
                         f"known: {sorted(FABRIC_OPS)}")


# ----------------------------------------------------------------------
# Processing kernels (one code path for both modes)
# ----------------------------------------------------------------------
def process_on(processor, batch, now: float
               ) -> tuple[np.ndarray, np.ndarray]:
    """Run one sub-chunk as a single admission chunk; (codes, ports)."""
    results = processor.process_batch(batch, now=now,
                                      chunk_size=max(len(batch), 1))
    return results.codes, results.ports


def queued_on(processor, port: int, limit: float
              ) -> tuple[bool, np.ndarray]:
    """(whether the port replays dequeues, its queued head sizes)."""
    manager = processor.traffic_manager
    return (manager.replays_dequeues(port),
            manager.queued_sizes(port, limit))


# ----------------------------------------------------------------------
# Observability payloads
# ----------------------------------------------------------------------
def snapshot_of(processor) -> dict:
    """One shard's complete observable state, as picklable data.

    The ledger and the telemetry collector ship whole: the fabric
    merges them with their own ``merge`` methods.
    """
    cache = processor.flow_cache
    return {
        "ledger": processor.ledger,
        "telemetry": processor.telemetry,
        "verdict_counts": {v.value: c for v, c
                           in processor.verdict_counts.items()},
        "processed": processor.processed,
        "cache_hits": cache.hits if cache is not None else 0,
        "cache_misses": cache.misses if cache is not None else 0,
        "cache_entries": len(cache) if cache is not None else 0,
        "extremes": processor.slice_extremes(),
        "robustness": processor.robustness_stats(),
    }


def merged(empty, parts):
    """Fold shard ledgers or telemetry collectors into ``empty``.

    Both merges are exact and partition invariant, so the result is
    what one serial switch would have recorded.
    """
    for part in parts:
        empty.merge(part)
    return empty


# ----------------------------------------------------------------------
# The in-process execution mode
# ----------------------------------------------------------------------
class InProcessShard:
    """A shard living in the caller's process (the test/debug mode)."""

    def __init__(self, shard_factory) -> None:
        self.processor = shard_factory()
        self.n_ports = self.processor.traffic_manager.n_ports
        self._staged: list[tuple[str, tuple]] = []
        self._pending: tuple[np.ndarray, np.ndarray] | None = None

    # -- processing ----------------------------------------------------
    def begin(self, batch, now: float) -> None:
        self._pending = process_on(self.processor, batch, now)

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

    def queued(self, port: int, limit: float
               ) -> tuple[bool, np.ndarray]:
        return queued_on(self.processor, port, limit)

    def serve(self, port: int, count: int, now: float) -> None:
        self.processor.traffic_manager.serve_count(port, count, now)

    def dequeue(self, port: int, now: float):
        return self.processor.traffic_manager.dequeue(port, now)

    def close(self) -> None:
        self._pending = None
