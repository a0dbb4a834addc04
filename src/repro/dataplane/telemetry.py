"""In-band telemetry and controller-facing statistics.

The cognitive network controller adapts the analog tables from
run-time observations, so the data plane must export them.  This
module provides:

* :class:`TelemetryCollector` — per-table hit/miss counters, verdict
  tallies and latency-proxy gauges the controller polls;
* INT-style per-packet metadata stamping (:func:`stamp_packet`):
  each traversed component appends its ID and local queue state to
  the packet, so path-level congestion is observable at the sink.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from repro.packet import Packet

__all__ = ["TableStats", "TelemetryCollector", "int_metadata",
           "stamp_packet"]

#: Packet field carrying the in-band telemetry trail.
INT_FIELD = "int_trail"


def stamp_packet(packet: Packet, component_id: str,
                 queue_depth: int, timestamp_s: float) -> None:
    """Append one INT record to the packet's telemetry trail."""
    trail = packet.fields.setdefault(INT_FIELD, [])
    trail.append({"component": component_id,
                  "queue_depth": queue_depth,
                  "timestamp_s": timestamp_s})


def int_metadata(packet: Packet) -> list[dict]:
    """The telemetry trail accumulated by a packet (possibly empty).

    Records are copied per hop, not just the list: callers may freely
    mutate the returned dicts (sinks annotate them) without corrupting
    the packet's in-band trail.
    """
    return [dict(record) for record in packet.fields.get(INT_FIELD, [])]


@dataclass
class TableStats:
    """Counters for one match-action table."""

    lookups: int = 0
    hits: int = 0
    verdicts: Counter = field(default_factory=Counter)

    @property
    def misses(self) -> int:
        """Lookups that matched no entry."""
        return self.lookups - self.hits

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit (0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0


class TelemetryCollector:
    """Aggregates data-plane statistics for the controller.

    Components report events through the ``record_*`` methods; the
    controller reads the aggregate views.  Gauges hold the latest
    sample of continuously-varying quantities (queue depth, delay
    EWMA, PDP).
    """

    def __init__(self) -> None:
        self._tables: dict[str, TableStats] = {}
        self._gauges: dict[str, float] = {}
        self._events: Counter[str] = Counter()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_lookup(self, table: str, hit: bool,
                      verdict: str | None = None) -> None:
        """Count one table lookup (and optionally its verdict)."""
        stats = self._tables.setdefault(table, TableStats())
        stats.lookups += 1
        if hit:
            stats.hits += 1
        if verdict is not None:
            stats.verdicts[verdict] += 1

    def record_lookup_batch(self, table: str, lookups: int, hits: int,
                            verdicts: Iterable[tuple[str, int]] = ()
                            ) -> None:
        """Count ``lookups`` lookups of one table at once.

        ``verdicts`` are ordered ``(verdict, count)`` pairs (see
        :func:`~repro.dataplane.fastpath.first_appearance_counts`);
        they sum exactly as a ``Counter`` would, so totals are
        indistinguishable from calling :meth:`record_lookup` per
        packet.
        """
        if lookups < 0 or hits < 0 or hits > lookups:
            raise ValueError(
                f"need 0 <= hits <= lookups: {hits!r}/{lookups!r}")
        stats = self._tables.setdefault(table, TableStats())
        stats.lookups += lookups
        stats.hits += hits
        counts = stats.verdicts
        for verdict, count in verdicts:
            counts[verdict] += count

    def record_event(self, name: str, count: int = 1) -> None:
        """Count a named event (drop, mark, adaptation, ...)."""
        if count < 0:
            raise ValueError(f"count must be non-negative: {count!r}")
        self._events[name] += count

    def set_gauge(self, name: str, value: float) -> None:
        """Publish the latest value of a continuously-varying signal."""
        self._gauges[name] = float(value)

    # ------------------------------------------------------------------
    # Controller-facing views
    # ------------------------------------------------------------------
    def table(self, name: str) -> TableStats:
        """Statistics of one table (KeyError if never recorded)."""
        try:
            return self._tables[name]
        except KeyError:
            raise KeyError(f"no statistics for table {name!r}; known: "
                           f"{sorted(self._tables)}") from None

    @property
    def tables(self) -> dict[str, TableStats]:
        """Snapshot of every table's statistics."""
        return dict(self._tables)

    def gauge(self, name: str, default: float = 0.0) -> float:
        """Latest value of a named gauge."""
        return self._gauges.get(name, default)

    def event_count(self, name: str) -> int:
        """How often a named event was recorded."""
        return self._events.get(name, 0)

    def snapshot(self) -> dict[str, object]:
        """A flat serialisable view of everything (controller poll)."""
        return {
            "tables": {name: {"lookups": stats.lookups,
                              "hits": stats.hits,
                              "hit_rate": stats.hit_rate,
                              "verdicts": dict(stats.verdicts)}
                       for name, stats in self._tables.items()},
            "gauges": dict(self._gauges),
            "events": dict(self._events),
        }

    def merge(self, other: "TelemetryCollector") -> None:
        """Fold another collector into this one.

        Tables and events are pure counters and sum exactly (hit rates
        follow from the summed counters).  Gauges sum too: the stock
        gauges are per-port backlogs, and a sharded port's backlog is
        the sum of its shards' backlogs.
        """
        if other is self:
            return
        for name, stats in other._tables.items():
            self.record_lookup_batch(name, stats.lookups, stats.hits,
                                     stats.verdicts.items())
        self._events.update(other._events)
        for name, value in other._gauges.items():
            self._gauges[name] = self._gauges.get(name, 0.0) + value

    def reset(self) -> None:
        """Drop all collected statistics."""
        self._tables.clear()
        self._gauges.clear()
        self._events.clear()
