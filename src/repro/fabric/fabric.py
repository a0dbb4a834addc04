"""The sharded multi-switch fabric.

:class:`SwitchFabric` scales one cognitive switch horizontally: N
``build_switch`` products (shards) behind an RSS front end, with a
merged observability surface that presents the ensemble as a single
processor.  The shards share one set of digital tables: at
construction the fabric checks that every shard's firewall, IP lookup
and next-hop -> port map hold the same entries, then points every
shard at shard 0's.  Each shard keeps its own flow cache, traffic
manager (queues and AQMs), energy ledger and telemetry, and its own
chunk walk; the walks of one chunk's shards run together, so their
digital MATs make one firewall search and one LPM search per chunk,
each shard's ledger paying for its own keys.

**Replay identity.**  A fabric replay is byte-identical to the serial
walk of the same trace because every divergence channel is closed:

* chunking happens at the *serial* chunk boundaries first, and each
  shard's sub-chunk runs as a single admission chunk — so per-chunk
  dedup sets and cache probe sequences partition cleanly (steering is
  flow-consistent: all packets of a flow share a shard, so the shards'
  cache misses are disjoint);
* the energy ledger books integer counts of fixed quanta and merges
  exactly (:class:`~repro.energy.ledger.ExactJoules`), and a shared
  search charges each shard exactly what searching its keys alone
  would, so summed shard ledgers equal the serial ledger bit-for-bit;
* telemetry is pure counters that sum, and each shard books its rows'
  verdicts and ports straight into the fabric's results at their
  original positions.

The guarantee holds in the no-eviction flow-cache regime (caches
large enough that LRU never evicts); under eviction pressure a
per-shard LRU can differ from the global one — throughput, not
identity, is the contract there.

**Generation purity.**  One lock orders chunk dispatch against
transaction commits, which may arrive from another thread: a chunk
runs on all its shards under the lock, and a commit applies its ops
under the same lock (routes and rules once, to the shared tables; the
flow-cache and AQM ops on every shard), so no chunk can observe two
fabric generations.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.dataplane.fastpath import PacketBatch
from repro.dataplane.pipeline import walk_chunks
from repro.dataplane.results import (
    VERDICTS,
    BatchResults,
    ProcessResult,
    Verdict,
)
from repro.dataplane.telemetry import TelemetryCollector
from repro.dataplane.traffic_manager import offer, serve_offer
from repro.energy.ledger import EnergyLedger
from repro.fabric.controller import FabricController
from repro.fabric.rss import ToeplitzRSS
from repro.fabric.shards import TABLE_OPS, Shard, apply_op

__all__ = ["SwitchFabric"]


class _MergedFlowCacheView:
    """The summed hits/misses of all shard flow caches."""

    __slots__ = ("hits", "misses", "entries")

    def __init__(self, caches) -> None:
        caches = [cache for cache in caches if cache is not None]
        self.hits = sum(cache.hits for cache in caches)
        self.misses = sum(cache.misses for cache in caches)
        self.entries = sum(len(cache) for cache in caches)

    def __len__(self) -> int:
        return self.entries


def _poll_row(processor) -> dict:
    """One shard's row of :meth:`SwitchFabric.poll_metrics`."""
    cache = processor.flow_cache
    delay_ewma_s, last_pdp, backlog = processor.slice_extremes()
    return {"processed": processor.processed,
            "cache_hits": cache.hits if cache is not None else 0,
            "cache_misses": cache.misses if cache is not None else 0,
            "degraded_tables": list(
                processor.robustness_stats()["degraded_tables"]),
            "verdict_counts": {v.value: c for v, c
                               in processor.verdict_counts.items()},
            "delay_ewma_s": delay_ewma_s,
            "last_pdp": last_pdp,
            "backlog": backlog}


class SwitchFabric:
    """N shard pipelines behind one RSS front end.

    Parameters
    ----------
    shard_factory:
        Zero-argument callable building one complete processor (a
        ``build_switch`` product).  Called once per shard; every call
        must build the same digital tables (``ValueError`` names the
        first shard that differs), which the shards then share.
    n_shards:
        Number of shard pipelines.
    rss:
        Optional pre-built :class:`ToeplitzRSS`; defaults to the
        symmetric key with a 128-entry round-robin indirection table.
    """

    def __init__(self, shard_factory, n_shards: int, *,
                 rss: ToeplitzRSS | None = None) -> None:
        if n_shards < 1:
            raise ValueError(f"need at least one shard: {n_shards!r}")
        if rss is not None and rss.n_shards != n_shards:
            raise ValueError(
                f"rss steers {rss.n_shards} shards, fabric has {n_shards}")
        self.n_shards = n_shards
        self.rss = rss or ToeplitzRSS(n_shards)
        self.shards = [Shard(shard_factory()) for _ in range(n_shards)]
        owner = self.shards[0].processor
        for index, shard in enumerate(self.shards[1:], 1):
            if shard.processor.digital_tables() != owner.digital_tables():
                raise ValueError(
                    f"shard {index}'s digital tables differ from shard "
                    f"0's: the shards share one firewall and IP lookup, "
                    f"so the factory must build them alike")
            shard.processor.share_tables(owner)
        #: The firewall and IP lookup every shard classifies against.
        self.firewall = owner.firewall
        self.lookup = owner.lookup
        self.n_ports = owner.traffic_manager.n_ports
        self.controller = FabricController(self)
        self._lock = threading.Lock()
        self._generation = 0
        self._hashed_packets = 0
        self._per_shard_packets = np.zeros(n_shards, dtype=np.int64)
        self._steering_seconds = 0.0
        self._dequeue_cursor = [0] * self.n_ports

    # ------------------------------------------------------------------
    # Steering
    # ------------------------------------------------------------------
    def _steer(self, chunk: PacketBatch) -> tuple[np.ndarray, list[int]]:
        """Shard index per row, and the rows each shard receives."""
        start = time.perf_counter()
        shard_ids = self.rss.shard_of_columns(chunk.src_ip, chunk.dst_ip,
                                              chunk.src_port,
                                              chunk.dst_port)
        self._steering_seconds += time.perf_counter() - start
        counts = np.bincount(shard_ids, minlength=self.n_shards)
        self._hashed_packets += len(shard_ids)
        self._per_shard_packets += counts
        return shard_ids, counts.tolist()

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def process(self, packet, now: float = 0.0) -> ProcessResult:
        """Steer and process one packet."""
        return self.process_batch([packet], now=now)[0]

    def process_batch(self, packets, now: float = 0.0,
                      chunk_size: int = 4096) -> BatchResults:
        """Steer and process a batch, results in input order.

        ``packets`` is a ``ChunkColumns`` chunk, a
        :class:`~repro.dataplane.fastpath.PacketBatch` or a ``Packet``
        sequence; either way its columns are built once, steered, and
        each shard gets its row slice.  The batch is cut at the
        *serial* chunk boundaries first; each chunk then runs on its
        shards, which book their rows straight into the results, before
        the next chunk starts, exactly mirroring the serial admission
        loop.  Verdict codes index
        :data:`~repro.dataplane.results.VERDICTS`; ports are ``int16``
        with ``-1`` for no egress.  A ``chunk_size`` below 1 raises
        :class:`ValueError` and a non-integer one :class:`TypeError`,
        as on the switch.
        """
        if chunk_size < 1:
            raise ValueError(
                f"chunk size must be >= 1: {chunk_size!r}")
        batch = PacketBatch.of(packets)
        results = BatchResults.empty(len(batch), batch.packets)
        for start in range(0, len(batch), chunk_size):
            chunk = batch.slice(start, start + chunk_size)
            self._dispatch(chunk, *self._steer(chunk), now, results,
                           start)
        return results

    def _dispatch(self, chunk: PacketBatch, shard_ids: np.ndarray,
                  counts: list[int], now: float, results: BatchResults,
                  base: int) -> None:
        """Run each shard's rows of one chunk, their digital MATs
        classified in one pass over the shared tables; each shard
        emits into ``results`` at the rows' absolute positions."""
        with self._lock:
            walks = []
            for shard, count in enumerate(counts):
                if count:
                    rows = np.flatnonzero(shard_ids == shard)
                    walks.append(self.shards[shard].processor.walk(
                        chunk if count == len(chunk) else chunk.take(rows),
                        base + rows, now, results))
            walk_chunks(walks, self.firewall, self.lookup,
                        self.shards[0].processor.tracer)

    # ------------------------------------------------------------------
    # Transactions (driven by the controller)
    # ------------------------------------------------------------------
    def _apply_all(self, ops) -> int:
        """Apply checked ops to every shard; the new generation.

        A route or rule is written once, to the shared tables through
        shard 0; every other shard drops its flow cache in its place,
        as its own table write would have.
        """
        with self._lock:
            for index, shard in enumerate(self.shards):
                for op in ops:
                    apply_op(shard.processor,
                             op if not index or op[0] not in TABLE_OPS
                             else ("invalidate_flow_cache", ()))
            self._generation += 1
            return self._generation

    @property
    def generation(self) -> int:
        return self._generation

    # ------------------------------------------------------------------
    # Merged observability
    # ------------------------------------------------------------------
    def _read(self, read) -> list:
        """``read(processor)`` for every shard, under the dispatch lock."""
        with self._lock:
            return [read(shard.processor) for shard in self.shards]

    @property
    def processed(self) -> int:
        return sum(self._read(lambda p: p.processed))

    @property
    def verdict_counts(self) -> dict[Verdict, int]:
        counts = {v: 0 for v in VERDICTS}
        for shard_counts in self._read(lambda p: dict(p.verdict_counts)):
            for verdict, count in shard_counts.items():
                counts[verdict] += count
        return counts

    @property
    def flow_cache(self) -> _MergedFlowCacheView:
        return _MergedFlowCacheView(self._read(lambda p: p.flow_cache))

    def _merged(self, empty, part):
        """Fold every shard's ``part(processor)`` into ``empty``.

        Ledgers and telemetry collectors merge exactly and partition
        invariantly, so the result is what one serial switch would
        have recorded.
        """
        with self._lock:
            for shard in self.shards:
                empty.merge(part(shard.processor))
        return empty

    def telemetry_snapshot(self) -> dict:
        return self._merged(TelemetryCollector(),
                            lambda p: p.telemetry).snapshot()

    def energy_ledger(self) -> EnergyLedger:
        return self._merged(EnergyLedger(), lambda p: p.ledger)

    def energy_total_j(self) -> float:
        return self.energy_ledger().total

    def energy_breakdown(self) -> dict[str, float]:
        ledger = self.energy_ledger()
        return {account: ledger.account(account)
                for account in ledger.breakdown()}

    def slice_extremes(self) -> tuple[float, float, int]:
        """(max delay EWMA, max PDP, max backlog) across all shards."""
        delays, pdps, backlogs = zip(
            *self._read(lambda p: p.slice_extremes()))
        return max(delays), max(pdps), max(backlogs)

    def robustness_stats(self) -> dict:
        stats = self._read(lambda p: p.robustness_stats())
        return {
            "fallback_events": sum(s["fallback_events"] for s in stats),
            "retries": sum(s["retries"] for s in stats),
            "degraded_tables": sorted(
                f"shard{i}.{table}"
                for i, s in enumerate(stats)
                for table in s["degraded_tables"]),
        }

    def poll_metrics(self) -> dict:
        """One fabric-wide metrics document (the NMS poll surface)."""
        rows = self._read(_poll_row)
        per_shard = self._per_shard_packets.tolist()
        mean = (self._hashed_packets / self.n_shards
                if self._hashed_packets else 0.0)
        return {
            "generation": self._generation,
            "n_shards": self.n_shards,
            "processed": sum(row["processed"] for row in rows),
            "telemetry": self.telemetry_snapshot(),
            "energy_total_j": self.energy_total_j(),
            "shards": rows,
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
    def serve(self, port: int, credit: float, now: float) -> float:
        """Serve one fabric port with ``credit`` bytes; the credit left.

        The one-port case of :meth:`serve_ports`.
        """
        return self._serve({port: credit}, now)[port]

    def serve_ports(self, credits: list[float], budget: float,
                    now: float) -> list[float]:
        """Serve every fabric port in one call; the credits left.

        Port ``p`` is offered ``credits[p] + budget`` bytes, served
        from the shards' traffic managers as
        :func:`~repro.dataplane.traffic_manager.serve_offer` describes
        (bit-identical to the per-packet loop over :meth:`dequeue`).
        """
        return list(self._serve(offer(credits, budget, self.n_ports),
                                now).values())

    def _serve(self, offered: dict[int, float], now: float
               ) -> dict[int, float]:
        with self._lock:
            return serve_offer(
                offered, [shard.processor.traffic_manager
                          for shard in self.shards],
                lambda port: self._dequeue(port, now),
                self._dequeue_cursor, now)

    def dequeue(self, port: int, now: float):
        """Serve one packet from a fabric port.

        Shards are visited round-robin per port (cursor persists
        across calls) so no shard's queue starves the others.
        """
        with self._lock:
            return self._dequeue(port, now)

    def _dequeue(self, port: int, now: float):
        cursor = self._dequeue_cursor[port]
        for step in range(self.n_shards):
            shard = (cursor + step) % self.n_shards
            packet = self.shards[shard].processor.traffic_manager \
                .dequeue(port, now)
            if packet is not None:
                self._dequeue_cursor[port] = (shard + 1) % self.n_shards
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
        """Nothing to release: the shards live in this process."""

    def __enter__(self) -> "SwitchFabric":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
