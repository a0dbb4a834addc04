"""Stage protocol and per-chunk context for the staged runtime.

A :class:`Stage` is one block of the Figure 5 switch (parser, digital
MATs, analog MAT / traffic manager with egress queues) expressed as a
columnar transform: it consumes a batch, emits verdicts for the rows
it disposes of through the context, writes its counters into the
context's telemetry collector, and returns the surviving batch for
the next stage.  Cross-cutting concerns (tracing, energy attribution,
degradation supervision) do *not* appear here — the
:class:`~repro.runtime.engine.PipelineRuntime`'s chunk loop does them
inline, from the ledger, tracer and supervisor it is assembled with.

This module is deliberately generic: it knows nothing about packets,
tables or verdict enums.  The concrete stages and the verdict
vocabulary live with the dataplane; the runtime only moves batches,
columns and emitted outcomes around.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol, runtime_checkable

__all__ = ["Stage", "StageContext"]


class StageContext:
    """Everything one chunk carries through the stage pipeline.

    Attributes
    ----------
    now:
        Simulation timestamp of the chunk [s].
    emit:
        ``emit(index, verdict, ...)`` — record the final outcome of
        the input row(s) with absolute index ``index`` (a caller may
        accept an index array, as the switch front-end does, to book
        a whole group of rows in one call).  Supplied by the caller,
        so the runtime stays agnostic of the verdict vocabulary.
    columns:
        Auxiliary columns aligned with the *current* batch.  The
        caller seeds ``columns["index"]`` with the absolute input
        indices of the chunk rows; a stage that filters its batch must
        filter every column it consumes the same way (and may add new
        ones, e.g. the digital MATs publish ``"egress_port"``).
    telemetry:
        The composing processor's telemetry collector, which stages
        write their lookup, event and gauge counts straight into
        (None for a runtime with no telemetry domain).
    tracer:
        Span tracer for stage-internal kernel spans, or None.  Set by
        the runtime for the chunk's duration; stages must tolerate
        None (the dataplane's ``maybe_span`` already does).
    """

    __slots__ = ("now", "emit", "columns", "telemetry", "tracer",
                 "entry_name", "entry_attributes")

    def __init__(self, now: float,
                 emit: Callable[..., None],
                 indices: "list[int] | range | None" = None,
                 telemetry: Any = None,
                 entry_name: str | None = None,
                 entry_attributes: dict | None = None) -> None:
        self.now = now
        self.emit = emit
        self.columns: dict[str, Any] = {}
        if indices is not None:
            self.columns["index"] = list(indices)
        self.telemetry = telemetry
        self.tracer: Any = None
        #: Name/attributes of the chunk-level span the runtime opens
        #: around the whole stage walk (None skips the chunk span,
        #: e.g. for a bare parser invocation).
        self.entry_name = entry_name
        self.entry_attributes = dict(entry_attributes or {})

    @property
    def indices(self) -> list[int]:
        """Absolute input indices aligned with the current batch."""
        return self.columns["index"]


@runtime_checkable
class Stage(Protocol):
    """One pipeline block: a named columnar batch transform.

    Implementations may additionally declare ``span_name`` (the span
    the runtime opens around the stage when it has a tracer; a stage
    without one runs unspanned) and ``span_attributes(batch) -> dict``
    for span attributes derived from the incoming batch.
    """

    name: str

    def process_batch(self, batch: Any, ctx: StageContext) -> Any:
        """Transform one chunk; return the surviving batch.

        Rows disposed of here must be reported via ``ctx.emit`` with
        their absolute index from ``ctx.columns["index"]``, and every
        consumed column must be re-published filtered to the rows the
        returned batch retains.
        """
        ...
