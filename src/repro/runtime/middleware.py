"""Cross-cutting middleware for the staged pipeline runtime.

Each concern that used to be hand-threaded through both the scalar
and the batched dataplane paths — span tracing, energy-ledger
attribution, degradation supervision — is one middleware registered
once on the :class:`~repro.runtime.engine.PipelineRuntime` at
assembly time.

A middleware wraps execution at two grains:

* :meth:`~BaseMiddleware.around_chunk` — around one chunk's whole
  walk through the stage list;
* :meth:`~BaseMiddleware.around_stage` — around one stage's
  ``process_batch`` call.

Both are context managers entered in registration order and exited in
reverse.  The stock middleware below are written to be *order
independent*: tracing is the only one that opens spans and energy
attribution only reads ledger totals — so any registration order
yields identical verdicts, span nesting, telemetry and ledger totals
(pinned by ``tests/test_runtime_middleware.py``).
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Any, Callable

from repro.observability.tracing import maybe_span
from repro.runtime.stage import Stage, StageContext

__all__ = [
    "BaseMiddleware",
    "EnergyAttributionMiddleware",
    "SupervisionMiddleware",
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
