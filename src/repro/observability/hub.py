"""The unified observability hub: one registry, one tracer, one clock.

:class:`Observability` ties the layer together so a caller wires a
single object into the data plane::

    from repro.observability import Observability

    obs = Observability()
    processor = AnalogPacketProcessor(observability=obs)
    ... traffic ...
    snapshot = obs.snapshot()          # controller poll (JSON-able)
    text = obs.to_prometheus()         # scrape-style export
    print(obs.tracer.format_tree())    # end-to-end packet trace

The hub owns a :class:`~repro.observability.tracing.SimClock` shared
by the tracer, so span timestamps follow the simulation timeline; the
data plane advances it via :meth:`set_time`.
"""

from __future__ import annotations

from repro.observability.export import to_json, to_prometheus_text
from repro.observability.profiling import Profiler
from repro.observability.registry import MetricsRegistry
from repro.observability.tracing import SimClock, Tracer

__all__ = ["Observability"]


class Observability:
    """Shared metrics registry + tracer + profiler behind one handle."""

    def __init__(self, registry: MetricsRegistry | None = None,
                 clock: SimClock | None = None,
                 tracer: Tracer | None = None,
                 profiler: Profiler | None = None,
                 max_spans: int = 4096) -> None:
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.clock = clock if clock is not None else SimClock()
        self.tracer = tracer if tracer is not None else Tracer(
            clock=self.clock, registry=self.registry,
            max_spans=max_spans)
        self.profiler = profiler if profiler is not None else Profiler(
            self.registry)

    # ------------------------------------------------------------------
    # Clock & tracing conveniences
    # ------------------------------------------------------------------
    def set_time(self, now_s: float) -> None:
        """Advance the shared sim clock (no-op for non-Sim clocks)."""
        clock = self.tracer.clock
        if isinstance(clock, SimClock):
            clock.set(now_s)

    def span(self, name: str, **attributes):
        """Open a span on the shared tracer."""
        return self.tracer.span(name, **attributes)

    # ------------------------------------------------------------------
    # Export surface
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """One JSON-able snapshot of every bound source (controller poll)."""
        return self.registry.snapshot()

    def to_prometheus(self) -> str:
        """Prometheus text exposition of the shared registry."""
        return to_prometheus_text(self.registry)

    def to_json(self, indent: int | None = None) -> str:
        """JSON document form of :meth:`snapshot`."""
        return to_json(self.registry, indent=indent)

    def __repr__(self) -> str:
        return (f"Observability(registry={self.registry!r}, "
                f"spans={len(self.tracer.finished)})")
