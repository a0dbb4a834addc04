"""Adapters folding existing telemetry sources onto the shared registry.

The code base already keeps run-time state in three places: the
data-plane :class:`~repro.dataplane.telemetry.TelemetryCollector`
(table hit/miss counters, gauges, events), the
:class:`~repro.energy.ledger.EnergyLedger` (per-account joules), and
the graceful-degradation wrappers
(:class:`~repro.robustness.degradation.DegradingAQM` fallback/retry
counts).  Each ``bind_*`` function registers a *pull collector* on the
registry: at snapshot/export time the source's current totals are
mirrored into registry instruments, so the controller polls one
surface and the sources' hot paths stay untouched.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.observability.registry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dataplane.telemetry import TelemetryCollector
    from repro.energy.ledger import EnergyLedger

__all__ = ["bind_degradation", "bind_ledger", "bind_runtime",
           "bind_telemetry"]


def bind_telemetry(registry: MetricsRegistry,
                   collector: "TelemetryCollector",
                   namespace: str = "dataplane") -> None:
    """Mirror a telemetry collector's tables/gauges/events.

    Exports, per table, ``{ns}_table_lookups_total``,
    ``{ns}_table_hits_total`` and ``{ns}_table_misses_total`` labelled
    ``table=...``; every collector gauge as ``{ns}_gauge{name=...}``;
    and every counted event as ``{ns}_events_total{event=...}``.
    """

    def collect(reg: MetricsRegistry) -> None:
        snapshot = collector.snapshot()
        for table, stats in snapshot["tables"].items():
            labels = {"table": table}
            reg.counter(f"{namespace}_table_lookups_total",
                        "Match-action table lookups.",
                        labels).set_total(stats["lookups"])
            reg.counter(f"{namespace}_table_hits_total",
                        "Match-action table hits.",
                        labels).set_total(stats["hits"])
            reg.counter(f"{namespace}_table_misses_total",
                        "Match-action table misses.",
                        labels).set_total(
                stats["lookups"] - stats["hits"])
        for name, value in snapshot["gauges"].items():
            reg.gauge(f"{namespace}_gauge",
                      "Latest sample of a named data-plane signal.",
                      {"name": name}).set(value)
        for event, count in snapshot["events"].items():
            reg.counter(f"{namespace}_events_total",
                        "Counted data-plane events.",
                        {"event": event}).set_total(count)

    registry.register_collector(collect)


def bind_ledger(registry: MetricsRegistry, ledger: "EnergyLedger",
                namespace: str = "energy") -> None:
    """Mirror an energy ledger's accounts onto the registry.

    Exports ``{ns}_account_joules_total{account=...}`` per account,
    plus ``{ns}_joules_total`` and ``{ns}_charge_events_total``.
    """

    def collect(reg: MetricsRegistry) -> None:
        total = 0.0
        for account, joules in ledger:
            reg.counter(f"{namespace}_account_joules_total",
                        "Energy charged per ledger account.",
                        {"account": account}).set_total(joules)
            total += joules
        reg.counter(f"{namespace}_joules_total",
                    "Total energy across all ledger accounts."
                    ).set_total(total)
        reg.counter(f"{namespace}_charge_events_total",
                    "Number of ledger charge events."
                    ).set_total(ledger.events)

    registry.register_collector(collect)


def bind_runtime(registry: MetricsRegistry, processor,
                 namespace: str = "runtime") -> None:
    """Mirror a switch's chunk-walk execution counters.

    ``processor`` is an
    :class:`~repro.dataplane.pipeline.AnalogPacketProcessor` (duck
    typed: ``chunks``, ``stage_runs`` and ``energy_by_stage()``).
    Exports ``{ns}_chunks_total``, per-stage
    ``{ns}_stage_runs_total{stage=...}`` and
    ``{ns}_stage_joules_total{stage=...}``.
    """

    def collect(reg: MetricsRegistry) -> None:
        reg.counter(f"{namespace}_chunks_total",
                    "Chunks executed by the staged runtime."
                    ).set_total(processor.chunks)
        for stage, runs in processor.stage_runs.items():
            reg.counter(f"{namespace}_stage_runs_total",
                        "Stage invocations by the staged runtime.",
                        {"stage": stage}).set_total(runs)
        for stage, joules in processor.energy_by_stage().items():
            reg.counter(f"{namespace}_stage_joules_total",
                        "Ledger energy attributed per runtime stage.",
                        {"stage": stage}).set_total(joules)

    registry.register_collector(collect)


def bind_degradation(registry: MetricsRegistry, degrader,
                     table: str | None = None,
                     namespace: str = "degradation") -> None:
    """Mirror a degradable table's fallback/retry state.

    ``degrader`` is anything with the
    :class:`~repro.robustness.degradation.DegradingAQM` counters
    (``fallback_events``, ``retries``, ``recoveries``, ``degraded``,
    ``last_deviation``).  ``table`` defaults to the degrader's own
    ``table`` attribute.
    """
    label = table if table is not None else getattr(
        degrader, "table", "unnamed")

    def collect(reg: MetricsRegistry) -> None:
        labels = {"table": label}
        reg.counter(f"{namespace}_fallback_total",
                    "Analog->digital fallback engagements.",
                    labels).set_total(degrader.fallback_events)
        reg.counter(f"{namespace}_retries_total",
                    "Reprogram-retry attempts on degraded tables.",
                    labels).set_total(degrader.retries)
        reg.counter(f"{namespace}_recoveries_total",
                    "Tables recovered to the analog path.",
                    labels).set_total(degrader.recoveries)
        reg.gauge(f"{namespace}_degraded",
                  "1 while the table serves from its fallback path.",
                  labels).set(1.0 if degrader.degraded else 0.0)
        reg.gauge(f"{namespace}_shadow_deviation",
                  "Latest |analog - shadow| PDP deviation.",
                  labels).set(degrader.last_deviation)

    registry.register_collector(collect)
