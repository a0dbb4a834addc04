"""The staged pipeline engine: one chunk executor for every entry point.

:class:`PipelineRuntime` composes an ordered list of
:class:`~repro.runtime.stage.Stage` objects.  ``run_chunk`` walks one
chunk through them in one flat loop: a stage returns the surviving
batch for its successor (a drained batch short-circuits the rest); the
chunk and each stage with a ``span_name`` run under a span of the
runtime's tracer, which is published on the context for the chunk;
each stage's ledger energy is attributed to it; and ``supervise(now)``
runs once per chunk, after its last stage.  Attribution, supervision
and the tracer's restoration happen even when a stage raises.

The scalar dataplane API is literally a batch of one through this
same executor, so the per-packet and columnar paths cannot drift
apart — they *are* the same code.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from repro.observability.tracing import maybe_span
from repro.runtime.stage import Stage, StageContext

__all__ = ["PipelineRuntime"]


def _drained(batch: Any, producer: str) -> bool:
    """True when no rows survive for the next stage.

    ``None`` is an explicit drain; anything else must be sized.  An
    unsized batch used to be silently treated as non-empty and walked
    through the remaining stages — now it raises immediately, naming
    the stage (or entry point) that produced it.
    """
    if batch is None:
        return True
    try:
        return len(batch) == 0
    except TypeError:
        raise TypeError(
            f"{producer} produced an unsized batch of type "
            f"{type(batch).__name__}; stages must return a sized "
            f"sequence (or None to drain the chunk)") from None


class PipelineRuntime:
    """Composes stages and runs chunks through them.

    ``ledger`` (an :class:`~repro.energy.ledger.EnergyLedger` whose
    ``total`` is read, never charged, around every stage), ``tracer``
    and ``supervise`` (called with each chunk's timestamp, e.g. the
    controller's ``tick``) are optional; all three are plain
    attributes, settable after assembly.
    """

    def __init__(self, stages: Iterable[Stage], *, ledger=None,
                 tracer=None,
                 supervise: Callable[[float], Any] | None = None) -> None:
        self.stages: list[Stage] = list(stages)
        names = [stage.name for stage in self.stages]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate stage names: {names!r}")
        self.ledger = ledger
        self.tracer = tracer
        self.supervise = supervise
        #: Chunks executed since assembly (all entry points).
        self.chunks = 0
        #: Stage invocations by stage name since assembly.
        self.stage_runs: dict[str, int] = {}
        self._joules: dict[str, float] = {}

    def stage(self, name: str) -> Stage:
        """Look up a composed stage by name."""
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise KeyError(f"no stage named {name!r}; composed: "
                       f"{[s.name for s in self.stages]}")

    def energy_attribution(self) -> dict[str, float]:
        """Ledger joules attributed to each stage name."""
        return dict(self._joules)

    def run_chunk(self, batch: Any, ctx: StageContext,
                  stages: Sequence[Stage] | None = None) -> Any:
        """Walk one chunk through the (sub)pipeline.

        ``stages`` restricts the walk to a contiguous slice of the
        composed pipeline (e.g. the frame entry point runs the parser
        alone over the whole burst, then chunks the survivors through
        the match-action stages); None runs every composed stage.
        Returns the batch surviving the final stage.
        """
        previous = ctx.tracer
        ctx.tracer = self.tracer
        self.chunks += 1
        try:
            with maybe_span(self.tracer if ctx.entry_name is not None
                            else None, ctx.entry_name,
                            **ctx.entry_attributes):
                try:
                    return self._walk(
                        batch, ctx, self.stages if stages is None
                        else stages)
                finally:
                    if self.supervise is not None:
                        self.supervise(ctx.now)
        finally:
            ctx.tracer = previous

    def _walk(self, batch: Any, ctx: StageContext,
              stages: Sequence[Stage]) -> Any:
        """The stage loop of :meth:`run_chunk`: spans and attribution."""
        ledger = self.ledger
        tracer = self.tracer
        runs = self.stage_runs
        joules = self._joules
        producer = "the pipeline input"
        for stage in stages:
            if _drained(batch, producer):
                break
            name = stage.name
            producer = f"stage {name!r}"
            runs[name] = runs.get(name, 0) + 1
            span = None if tracer is None \
                else getattr(stage, "span_name", None)
            attributes = None if span is None \
                else getattr(stage, "span_attributes", None)
            before = ledger.total if ledger is not None else 0.0
            try:
                with maybe_span(None if span is None else tracer, span,
                                **({} if attributes is None
                                   else attributes(batch))):
                    batch = stage.process_batch(batch, ctx)
            finally:
                if ledger is not None:
                    joules[name] = joules.get(name, 0.0) \
                        + (ledger.total - before)
        return batch
