"""Pipeline compiler: a SwitchSpec-assembled processor, one fused kernel.

The staged runtime buys its composability with per-chunk machinery —
an ``ExitStack`` of middleware context managers around every chunk
and every stage, and a stage context carrying the auxiliary
columns.  For the stock switch shape (parser -> digital MATs ->
optional classifiers -> egress under telemetry / energy-attribution /
supervision middleware) none of that flexibility is exercised per
packet, so :func:`compile_processor` folds it away:

* **Shape analysis** proves the processor is the stock pipeline: the
  frame walk is exactly the parser stage, the match-action walk opens
  with the digital MATs and closes with egress, and every registered
  middleware is one the kernel knows how to reproduce exactly
  (telemetry tally + flush, per-stage ledger attribution, per-chunk
  supervision).  Anything else — tracing middleware, fault-plan
  installers, unknown middleware, a rearranged stage list — refuses
  with a recorded reason and the processor keeps the staged walk.
* **Fusion** calls the stock stages' own columnar passes
  (:func:`~repro.dataplane.stages.parse_pass`,
  :func:`~repro.dataplane.stages.mats_pass`,
  :func:`~repro.dataplane.stages.egress_pass`) on the same
  :class:`~repro.dataplane.fastpath.PacketBatch` chunk and the same
  emitter, so there is no second copy of the verdict logic — only the
  per-chunk context managers are gone.  Interior stages (e.g. the
  aCAM classifier) still run through their real ``process_batch``
  under a real context, so inserted stages never change behaviour —
  they only anchor the fused prologue and epilogue around
  themselves.
* **Lowering** is delegated to the analog leg: a fused processor
  enables each port AQM's compiled lane
  (:mod:`repro.core.pcam_fold`), which itself lowers through numba
  when importable and stays pure NumPy/Python otherwise — CI runs
  hermetically either way.

Chunk/stage counters, telemetry totals, gauge samples, ledger
charges, per-stage energy attribution, RNG draw order and supervision
ticks are all reproduced exactly; ``tests/test_runtime_golden.py``
pins the compiled configurations byte-for-byte against the staged
references.

Layering: this module is the one sanctioned bridge from the runtime
package down into ``repro.dataplane`` (it compiles dataplane stage
shapes, so it must see them); it must never import ``repro.netfunc``
(``tools/check_layering.py`` enforces both directions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.pcam_fold import LOWERING
from repro.dataplane.fastpath import PacketBatch
from repro.dataplane.results import BatchResults
from repro.dataplane.stages import (
    DigitalMatsStage,
    EgressStage,
    ParserStage,
    egress_pass,
    mats_pass,
    parse_pass,
)
from repro.runtime.engine import _drained
from repro.runtime.middleware import (
    EnergyAttributionMiddleware,
    SupervisionMiddleware,
    TelemetryMiddleware,
)
from repro.runtime.stage import NULL_TALLY, StageContext

__all__ = ["CompiledPlan", "FusedSwitchKernel", "compile_processor"]


@dataclass(frozen=True)
class CompiledPlan:
    """Outcome of one compilation attempt.

    ``fused`` is False when the processor's shape or middleware set
    cannot be reproduced exactly; ``reasons`` then says why (one line
    per obstruction) and the processor keeps the staged walk.
    ``lowering`` reports the backend the folded analog lane evaluates
    through (``numba`` when importable, else ``python``).
    """

    fused: bool
    reasons: tuple[str, ...]
    stages: tuple[str, ...]
    lowering: str
    kernel: "FusedSwitchKernel | None" = field(default=None, repr=False)


class FusedSwitchKernel:
    """The stock switch pipeline as one pass per chunk.

    Built by :func:`compile_processor` after shape analysis; mirrors
    the staged walk's observable behaviour exactly (see the module
    docstring) while eliminating its per-packet and per-stage
    machinery.  Holds only borrowed references — tables, cache,
    traffic manager and middleware state are read at call time, so
    run-time reconfiguration stays visible; structural changes
    (stage insertion, middleware replacement) recompile via
    :meth:`~repro.dataplane.pipeline.AnalogPacketProcessor._recompile`.
    """

    def __init__(self, processor, parser_stage: ParserStage,
                 digital_stage: DigitalMatsStage,
                 interior: Sequence, egress_stage: EgressStage,
                 telemetry: TelemetryMiddleware | None,
                 energy: EnergyAttributionMiddleware | None,
                 supervision: SupervisionMiddleware | None) -> None:
        self._processor = processor
        self._runtime = processor.runtime
        self._parser_name = parser_stage.name
        self._digital_name = digital_stage.name
        self._interior = tuple(interior)
        self._egress_name = egress_stage.name
        self._telemetry = telemetry
        self._energy = energy
        self._supervision = supervision
        self._ledger = processor.ledger

    # ------------------------------------------------------------------
    # Entry points (mirror AnalogPacketProcessor's staged walks)
    # ------------------------------------------------------------------
    def process_frames(self, frames: Sequence[bytes], now: float,
                       chunk_size: int, results: BatchResults) -> None:
        """One fused parser chunk over the burst, then chunked MATs."""
        processor = self._processor
        emit = processor._emitter(results)
        index = np.arange(len(frames))
        batch = PacketBatch([])
        tally = self._begin_chunk()
        try:
            if frames:
                batch, index = self._timed(
                    self._parser_name, parse_pass, processor, frames,
                    index, now, tally, emit)
        finally:
            self._finish_chunk(tally, now)
        processor._run_parsed(batch, index, now, chunk_size, results)

    def run_chunk(self, batch: PacketBatch, index: np.ndarray,
                  now: float, emit) -> None:
        """Digital MATs -> interior stages -> egress, one fused pass.

        Reproduces the staged walk's chunk/stage counters, tally
        contents, ledger attribution and supervision tick exactly.
        """
        processor = self._processor
        tally = self._begin_chunk()
        try:
            if len(batch):
                batch, index, ports = self._timed(
                    self._digital_name, mats_pass, processor, batch,
                    index, now, tally, emit)
                if self._interior and len(batch):
                    batch, index, ports = self._interior_pass(
                        batch, index, ports, now, tally, emit)
                if len(batch):
                    self._timed(self._egress_name, egress_pass,
                                processor, batch, index, ports, now,
                                tally, emit)
        finally:
            self._finish_chunk(tally, now)

    # ------------------------------------------------------------------
    # Chunk prologue / epilogue and stage bookkeeping
    # ------------------------------------------------------------------
    def _begin_chunk(self):
        self._runtime.chunks += 1
        return self._telemetry.tally_factory() \
            if self._telemetry is not None else NULL_TALLY

    def _finish_chunk(self, tally, now: float) -> None:
        """The staged walk's chunk epilogue, in middleware exit order.

        Middleware exit in reverse registration order, so supervision
        (registered last) ticks before the telemetry tally flushes.
        """
        supervision = self._supervision
        if supervision is not None:
            supervision.invocations += 1
            supervision.supervise(now)
        if self._telemetry is not None:
            tally.flush(self._telemetry.collector)

    def _timed(self, name: str, run, *args):
        """One stage: counted, run, and its ledger delta attributed."""
        runs = self._runtime.stage_runs
        runs[name] = runs.get(name, 0) + 1
        before = self._ledger.total
        out = run(*args)
        if self._energy is not None:
            self._energy.record(name, self._ledger.total - before)
        return out

    def _interior_pass(self, batch: PacketBatch, index: np.ndarray,
                       ports: np.ndarray, now: float, tally, emit):
        """Run inserted stages (e.g. the classifier) un-fused.

        Each interior stage gets a real :class:`StageContext` over the
        live columns and the processor's real emitter, so arbitrary
        inserted stages behave exactly as on the staged walk; the
        fused prologue/epilogue just bracket them.
        """
        ctx = StageContext(now, emit)
        ctx.columns["index"] = index
        ctx.columns["egress_port"] = ports
        ctx.tally = tally
        producer = f"stage {self._digital_name!r}"
        for stage in self._interior:
            if _drained(batch, producer):
                break
            producer = f"stage {stage.name!r}"
            batch = self._timed(stage.name, stage.process_batch, batch,
                                ctx)
        if _drained(batch, producer):
            batch = PacketBatch([])
        return batch, ctx.columns["index"], ctx.columns["egress_port"]


def compile_processor(processor) -> CompiledPlan:
    """Analyse a processor and build its fused kernel, or refuse.

    Returns a :class:`CompiledPlan`; when ``plan.fused`` the kernel
    reproduces the staged walk byte-for-byte.  Refusals (non-stock
    stage shapes, middleware the kernel cannot reproduce — tracing,
    fault plans, duplicates, anything unknown) record one reason each
    and leave the processor on the staged walk.
    """
    reasons: list[str] = []
    frame_stages = processor._frame_stages
    mats = processor._mat_stages
    parser_stage = frame_stages[0] if len(frame_stages) == 1 else None
    if not isinstance(parser_stage, ParserStage):
        reasons.append(
            "frame walk is not exactly the stock parser stage")
        parser_stage = None
    digital_stage = mats[0] if len(mats) >= 2 else None
    egress_stage = mats[-1] if len(mats) >= 2 else None
    if not isinstance(digital_stage, DigitalMatsStage) \
            or not isinstance(egress_stage, EgressStage):
        reasons.append(
            "match-action walk must open with the digital MATs and "
            "close with egress")
        digital_stage = egress_stage = None
    telemetry: TelemetryMiddleware | None = None
    energy: EnergyAttributionMiddleware | None = None
    supervision: SupervisionMiddleware | None = None
    for mw in processor.runtime.middleware:
        # Exact types only: a subclass may override the hooks the
        # kernel folds away, so it is not provably reproducible.
        if type(mw) is TelemetryMiddleware and telemetry is None:
            telemetry = mw
        elif type(mw) is EnergyAttributionMiddleware and energy is None:
            energy = mw
        elif type(mw) is SupervisionMiddleware and supervision is None:
            supervision = mw
        else:
            reasons.append(f"middleware {type(mw).__name__} needs the "
                           f"staged walk")
    stage_names = tuple(stage.name for stage in processor.runtime.stages)
    if reasons:
        return CompiledPlan(fused=False, reasons=tuple(reasons),
                            stages=stage_names, lowering=LOWERING)
    kernel = FusedSwitchKernel(processor, parser_stage, digital_stage,
                               mats[1:-1], egress_stage, telemetry,
                               energy, supervision)
    return CompiledPlan(fused=True, reasons=(), stages=stage_names,
                        lowering=LOWERING, kernel=kernel)
