"""Constant-folded uniform evaluation of a pCAM pipeline.

Batched AQM admission evaluates the whole pipeline over a chunk whose
feature columns are *uniform*: every packet in the chunk is judged
against the chunk-start queue state, so ``np.full(n, raw)`` per stage
would feed :meth:`PCAMPipeline.evaluate_batch` ``n`` identical rows
and get ``n`` identical outputs back.  For plain healthy linear cells
that is pure overhead: one scalar evaluation broadcast over the chunk
is *bit-identical* (elementwise float64 ufuncs do not depend on batch
length) at a fraction of the cost.  This is the admission path of
:meth:`repro.netfunc.aqm.pcam_aqm.PCAMAQM.on_enqueue_batch`; the
``n``-row batch kernel serves only what the fold refuses.

:func:`fold_pipeline` performs the constant-folding pass: it captures
each stage's eight parameters — including the ramp intercepts, which
``response_array`` re-divides on every call — into flat floats, and
returns a :class:`FoldedPCAMPipeline` whose
:meth:`~FoldedPCAMPipeline.evaluate_uniform` replicates the exact
expression tree of :meth:`PCAMCell.response_array` (linear branch)
plus the sequential composition reduce.  Folding refuses anything
whose uniform output cannot be proven equal to the batch kernel's:

* device-realised or otherwise subclassed cells (their response may
  be stochastic per element, or consume RNG state per draw);
* cells with an injected fault (read-noise faults draw per-element);
* non-linear ramp shapes (kept on the one true batch path);
* the ``mean`` composition (see :func:`fold_pipeline`).

Observing never changes the path: with a tracer or profiler attached
to the pipeline, the folded evaluation opens the same
``pcam.evaluate_batch`` span (one ``pcam.stage.<name>`` child per
stage) and records the same ``pcam.evaluate_batch`` profiler site as
the batch kernel.

Validity is re-checked cheaply per call site via
:meth:`FoldedPCAMPipeline.matches`: ``program()`` replaces a cell's
frozen :class:`PCAMParams` object, so parameter *identity* plus the
fault slot, the rail clip and the ramp shape revalidate the fold —
reprogramming, fault injection or a shape change invalidates it and
the caller re-folds (or falls back).

When :mod:`numba` is importable the folded scalar kernel is
additionally lowered to a jitted function over a constants matrix
(:data:`LOWERING` reports which backend is active); the pure-Python/
NumPy form is the hermetic fallback and the reference the lowering
must agree with bit-for-bit (``tests/test_pcam_fold.py``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.pcam_cell import PCAMCell
from repro.core.pcam_pipeline import BATCH_COMPOSITIONS, PCAMPipeline
from repro.observability.profiling import profiled

__all__ = ["FoldedPCAMPipeline", "FoldedStage", "LOWERING",
           "fold_pipeline"]

try:  # pragma: no cover - exercised only where numba is installed
    import numba as _numba
except ImportError:  # the hermetic CI container has no numba
    _numba = None

#: Active lowering backend for the folded scalar kernel.
LOWERING = "numba" if _numba is not None else "python"

#: Column layout of the per-stage constants matrix the lowered kernel
#: consumes: thresholds, slopes, rails, precomputed ramp intercepts,
#: clip flag.
_CONST_COLUMNS = ("m1", "m2", "m3", "m4", "sa", "sb", "pmin", "pmax",
                  "rise_const", "fall_const", "clip")


def _stage_response(c: np.ndarray, x: float) -> float:
    """One folded five-region response; mirrors ``response_array``.

    ``c`` is one row of the constants matrix (indexed, not unpacked,
    so the identical function body lowers through numba).  The branch
    order is exactly the ``np.select`` condition order of the batch
    kernel, and the ramp expressions reuse the intercepts the fold
    precomputed — the division is deterministic, so folding it is
    exact.
    """
    pmin = c[6]
    pmax = c[7]
    if x <= c[0] or x >= c[3]:
        out = pmin
    elif x > c[2]:
        out = c[5] * x + c[9]
    elif x < c[1]:
        out = c[4] * x + c[8]
    else:
        out = pmax
    if c[10] != 0.0:
        out = min(pmax, max(pmin, out))
    return out


if _numba is not None:  # pragma: no cover - numba-only lowering
    _stage_response_lowered = _numba.njit(cache=False)(_stage_response)

    @_numba.njit(cache=False)
    def _product_lowered(consts, values):
        out = 1.0
        for index in range(consts.shape[0]):
            out *= _stage_response_lowered(consts[index], values[index])
        return out

    @_numba.njit(cache=False)
    def _min_lowered(consts, values):
        out = _stage_response_lowered(consts[0], values[0])
        for index in range(1, consts.shape[0]):
            probability = _stage_response_lowered(consts[index],
                                                  values[index])
            if probability < out:
                out = probability
        return out


class FoldedStage:
    """One stage's constants plus its validity tokens."""

    __slots__ = ("cell", "params", "clip", "nonlinearity")

    def __init__(self, cell: PCAMCell) -> None:
        self.cell = cell
        self.params = cell.params
        self.clip = cell.clip_to_rails
        self.nonlinearity = cell.nonlinearity

    def constants(self) -> list[float]:
        """The stage's row of the constants matrix."""
        p = self.params
        # Identical fold of the zero-width-ramp guard the batch kernel
        # applies before dividing.
        rise_span = (p.m2 - p.m1) if p.m2 > p.m1 else 1.0
        fall_span = (p.m4 - p.m3) if p.m4 > p.m3 else 1.0
        return [p.m1, p.m2, p.m3, p.m4, p.sa, p.sb, p.pmin, p.pmax,
                (p.m2 * p.pmin - p.m1 * p.pmax) / rise_span,
                (p.m4 * p.pmax - p.m3 * p.pmin) / fall_span,
                1.0 if self.clip else 0.0]

    def valid(self) -> bool:
        """Cheap revalidation: same frozen params, healthy, same shape."""
        cell = self.cell
        return (cell.params is self.params and cell.fault is None
                and cell.clip_to_rails == self.clip
                and cell.nonlinearity == self.nonlinearity)


class FoldedPCAMPipeline:
    """A pipeline constant-folded for uniform (broadcast) evaluation.

    Built by :func:`fold_pipeline`; evaluate with
    :meth:`evaluate_uniform` after :meth:`matches` confirms the fold
    is still current.
    """

    def __init__(self, pipeline: PCAMPipeline,
                 stages: Sequence[FoldedStage]) -> None:
        self.pipeline = pipeline
        self.stage_names = pipeline.stage_names
        self.composition = pipeline.composition
        self._stages = tuple(stages)
        self._consts = np.array(
            [stage.constants() for stage in stages], dtype=float)
        self._cells = tuple(stage.cell for stage in stages)
        self._lowered = None
        if _numba is not None and self.composition in ("product", "min"):
            self._lowered = (_product_lowered
                             if self.composition == "product"
                             else _min_lowered)

    def __len__(self) -> int:
        return len(self._stages)

    @property
    def lowering(self) -> str:
        """Backend evaluating this fold (``numba`` or ``python``)."""
        return "numba" if self._lowered is not None else "python"

    def matches(self, pipeline: PCAMPipeline) -> bool:
        """True while the fold still describes ``pipeline`` exactly.

        Reprogramming a stage (``update_pCAM``) replaces its frozen
        params object, fault injection populates the fault slot, and
        the rail clip and ramp shape are compared with their folded
        values, so these checks catch every invalidation.
        """
        if pipeline is not self.pipeline:
            return False
        for stage in self._stages:
            if not stage.valid():
                return False
        return True

    @property
    def profiler(self):
        """The pipeline's profiler (the ``@profiled`` site reports here)."""
        return self.pipeline.profiler

    @profiled("pcam.evaluate_batch")
    def evaluate_uniform(self, values: Sequence[float],
                         count: int = 1) -> float:
        """Composite probability of one feature vector, counted as
        ``count`` evaluations.

        ``values`` are voltage-domain features in stage order.  Every
        cell's evaluation counter advances by ``count`` — exactly what
        ``response_array`` over a ``count``-row uniform batch records
        — so hardware-utilisation accounting cannot tell the folded
        and batch paths apart.  Spans and the profiler sample are
        those of :meth:`PCAMPipeline.evaluate_batch` over ``count``
        rows.
        """
        for cell in self._cells:
            cell.tally_evaluations(count)
        tracer = self.pipeline.tracer
        if tracer is not None:
            with tracer.span("pcam.evaluate_batch", batch=count):
                probabilities = []
                for name, row, value in zip(self.stage_names,
                                            self._consts, values):
                    with tracer.span(f"pcam.stage.{name}"):
                        probabilities.append(
                            _stage_response(row, float(value)))
                return self._compose(probabilities)
        if self._lowered is not None:  # pragma: no cover - numba-only
            try:
                return float(self._lowered(
                    self._consts, np.asarray(values, dtype=float)))
            except Exception:
                # Lowering failed (e.g. unsupported platform): demote
                # to the pure-Python kernel permanently for this fold.
                self._lowered = None
        consts = self._consts
        return self._compose([_stage_response(consts[index], float(value))
                              for index, value in enumerate(values)])

    def _compose(self, probabilities: list[float]) -> float:
        """The pipeline's composition over one column of stage outputs."""
        if self.composition == "product":
            # np.prod reduces sequentially left-to-right for short
            # axes (pairwise blocking starts far above 8 stages), so a
            # scalar chain is bit-identical.
            out = 1.0
            for probability in probabilities:
                out *= probability
            return out
        if self.composition == "min":
            return min(probabilities)
        # geometric / mean involve a pow or division whose scalar
        # libm rounding is not guaranteed to match NumPy's — run the
        # actual batch reduce over one column instead.
        column = np.asarray(probabilities, dtype=float).reshape(-1, 1)
        return float(BATCH_COMPOSITIONS[self.composition](column)[0])


def fold_pipeline(pipeline: PCAMPipeline) -> FoldedPCAMPipeline | None:
    """Constant-fold a pipeline, or ``None`` when exactness is unprovable.

    Only plain healthy linear :class:`PCAMCell` stages fold — exactly
    the cases where broadcasting one scalar evaluation is bit-equal to
    the batch kernel.  Device cells, injected faults and non-linear
    ramps refuse (the caller keeps the ``n``-row batch kernel).
    """
    # "mean" reduces through np.add.reduce, whose pairwise summation
    # order depends on operand contiguity — a (n_stages, 1) column
    # and a (n_stages, n) matrix can round the last ulp differently,
    # so uniform-broadcast equality is unprovable.  The multiplicative
    # and min reduces are strictly sequential at these widths.
    if pipeline.composition not in ("product", "min", "geometric"):
        return None
    stages: list[FoldedStage] = []
    for name in pipeline.stage_names:
        cell = pipeline.stage(name)
        if type(cell) is not PCAMCell:
            return None
        if cell.fault is not None or cell.nonlinearity != "linear":
            return None
        stages.append(FoldedStage(cell))
    return FoldedPCAMPipeline(pipeline, stages)
