"""Cross-cutting middleware for the staged pipeline runtime.

Each concern that used to be hand-threaded through both the scalar
and the batched dataplane paths — span tracing, telemetry flushing,
energy-ledger attribution, fault-plan installation, degradation
supervision — is one middleware registered once on the
:class:`~repro.runtime.engine.PipelineRuntime` at assembly time.

A middleware wraps execution at two grains:

* :meth:`~BaseMiddleware.around_chunk` — around one chunk's whole
  walk through the stage list;
* :meth:`~BaseMiddleware.around_stage` — around one stage's
  ``process_batch`` call.

Both are context managers entered in registration order and exited in
reverse.  The stock middleware below are written to be *order
independent*: tracing is the only one that opens spans, telemetry
only swaps the chunk tally in and flushes it, energy attribution only
reads ledger totals — so any registration order yields identical
verdicts, span nesting and ledger totals (pinned by
``tests/test_runtime_middleware.py``).
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Iterable, Sequence

from repro.observability.tracing import maybe_span
from repro.runtime.stage import Stage, StageContext

__all__ = [
    "BaseMiddleware",
    "EnergyAttributionMiddleware",
    "FaultPlanMiddleware",
    "SupervisionMiddleware",
    "TelemetryMiddleware",
    "TracingMiddleware",
]


class BaseMiddleware:
    """No-op middleware; subclasses override the hooks they need."""

    def on_attach(self, runtime) -> None:
        """Called once when the runtime is (re)assembled."""

    @contextmanager
    def around_chunk(self, ctx: StageContext):
        """Wrap one chunk's walk through the stage list."""
        yield

    @contextmanager
    def around_stage(self, stage: Stage, batch: Any,
                     ctx: StageContext):
        """Wrap one stage's ``process_batch`` call."""
        yield


class TracingMiddleware(BaseMiddleware):
    """Opens the chunk entry span and one span per stage.

    The chunk span is named by ``ctx.entry_name`` (skipped when None,
    e.g. a bare parser invocation outside any batch entry point); the
    stage span by the stage's ``span_name`` attribute (stages without
    one run unspanned).  The tracer is also published on the context
    so stages can open kernel-level child spans themselves.
    """

    def __init__(self, tracer) -> None:
        self.tracer = tracer

    @contextmanager
    def around_chunk(self, ctx: StageContext):
        previous = ctx.tracer
        ctx.tracer = self.tracer
        try:
            with maybe_span(self.tracer, ctx.entry_name,
                            **ctx.entry_attributes) \
                    if ctx.entry_name is not None else nullcontext():
                yield
        finally:
            ctx.tracer = previous

    @contextmanager
    def around_stage(self, stage: Stage, batch: Any,
                     ctx: StageContext):
        name = getattr(stage, "span_name", None)
        if name is None:
            yield
            return
        attributes = getattr(stage, "span_attributes", None)
        attrs = attributes(batch) if attributes is not None else {}
        with maybe_span(self.tracer, name, **attrs):
            yield


class TelemetryMiddleware(BaseMiddleware):
    """Installs a per-chunk tally and flushes it once at chunk end.

    ``tally_factory`` builds the chunk-local aggregation object (the
    dataplane injects its
    :class:`~repro.dataplane.fastpath.TelemetryTally`); the runtime
    package itself stays agnostic of the tally's shape beyond the
    ``flush(collector)`` call.
    """

    def __init__(self, collector, tally_factory: Callable[[], Any]
                 ) -> None:
        self.collector = collector
        self.tally_factory = tally_factory

    @contextmanager
    def around_chunk(self, ctx: StageContext):
        previous = ctx.tally
        tally = self.tally_factory()
        ctx.tally = tally
        try:
            yield
        finally:
            ctx.tally = previous
            tally.flush(self.collector)


class EnergyAttributionMiddleware(BaseMiddleware):
    """Attributes ledger energy deltas to the stage that spent them.

    Purely observational: reads ``ledger.total`` before and after each
    stage and accumulates the difference under the stage name, so
    experiments can split the per-chunk joules between the digital
    MATs and the analog traffic manager without instrumenting either.
    """

    def __init__(self, ledger) -> None:
        self.ledger = ledger
        self._joules: dict[str, float] = {}

    def attribution(self) -> dict[str, float]:
        """Accumulated joules per stage name."""
        return dict(self._joules)

    @contextmanager
    def around_stage(self, stage: Stage, batch: Any,
                     ctx: StageContext):
        before = self.ledger.total
        try:
            yield
        finally:
            delta = self.ledger.total - before
            self._joules[stage.name] = \
                self._joules.get(stage.name, 0.0) + delta


class FaultPlanMiddleware(BaseMiddleware):
    """Installs fault plans once when the runtime is assembled.

    ``installers`` are zero-argument callables (typically closures
    over a :class:`~repro.robustness.injector.FaultInjector` and its
    target) run exactly once at attach time — fault installation is a
    cross-cutting assembly decision, not per-chunk work.
    """

    def __init__(self, installers: Iterable[Callable[[], Any]]
                 ) -> None:
        self.installers: Sequence[Callable[[], Any]] = list(installers)
        self.installed = 0

    def on_attach(self, runtime) -> None:
        if self.installed:
            return
        for install in self.installers:
            install()
            self.installed += 1


class SupervisionMiddleware(BaseMiddleware):
    """Drives degradation supervision once per processed chunk.

    ``supervise`` is called with the chunk timestamp after the chunk
    completes — typically
    :meth:`repro.control.cognitive.CognitiveNetworkController.tick`,
    so reprogram-retry backoff advances with traffic instead of
    needing an external clock loop.
    """

    def __init__(self, supervise: Callable[[float], Any]) -> None:
        self.supervise = supervise
        self.invocations = 0

    @contextmanager
    def around_chunk(self, ctx: StageContext):
        try:
            yield
        finally:
            self.invocations += 1
            self.supervise(ctx.now)
