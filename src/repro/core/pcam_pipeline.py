"""Series composition of pCAM stages (paper Figure 4b).

"For multistage match-action process, multiple pCAM cells can be
combined in series to obtain the **product** of deterministic and
probabilistic matches at the output."

A :class:`PCAMPipeline` holds named stages — each an ideal
:class:`~repro.core.pcam_cell.PCAMCell` or a device-realised
:class:`~repro.core.device_cell.DevicePCAMCell` — and evaluates a
feature vector to a single probability.  The paper's composition is
the product; ``min``, geometric-mean and arithmetic-mean compositions
are provided for the ablation benches (DESIGN.md section 5, item 3).

Batch evaluation
----------------
The analog array matches every applied input in a single cycle, so
the software model must not pay a Python-interpreter round trip per
packet or per stage.  Every entry point evaluates the stages through
one :class:`~repro.core.pcam_cell.CellStack`: healthy linear cells as
one stacked kernel over their constants matrix, every other stage
through its own ``response_array``.  :meth:`PCAMPipeline.evaluate_uniform`
judges ``count`` identical feature vectors (a batched AQM admission)
by evaluating the kernel rows once.  The scalar entry points delegate
to the batch kernels with size-1 arrays; equivalence is pinned by
``tests/test_batch_equivalence.py``.

:class:`PipelineStack` stacks several pipelines' cells into one kernel
call and reduces each pipeline with its own :data:`BATCH_COMPOSITIONS`
rule: a :class:`~repro.core.pcam_array.PCAMArray` bank (each stored
word is a pipeline), a traffic manager's congested AQM ports, and the
control gate's probes.  Those rules are the only code that composes
stage responses.
"""

from __future__ import annotations

from typing import Callable, Mapping, Protocol, Sequence

import numpy as np

from repro.core.device_cell import DevicePCAMCell
from repro.core.pcam_cell import CellStack, PCAMCell, PCAMParams
from repro.observability.profiling import get_default_profiler, profiled
from repro.observability.tracing import maybe_span

__all__ = [
    "BATCH_COMPOSITIONS",
    "MatchStage",
    "MissingFeatureError",
    "PCAMPipeline",
    "PipelineFeatureError",
    "PipelineStack",
    "UnknownFeatureError",
]


class PipelineFeatureError(Exception):
    """A feature vector does not line up with the pipeline's stages."""


class MissingFeatureError(PipelineFeatureError, KeyError):
    """A feature mapping lacks values for one or more stages."""

    def __init__(self, missing: Sequence[str],
                 stage_names: Sequence[str]) -> None:
        self.missing = tuple(missing)
        self.stage_names = tuple(stage_names)
        super().__init__(
            f"missing features for stages {sorted(self.missing)}; "
            f"pipeline stages are {list(self.stage_names)}")

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0]


class UnknownFeatureError(PipelineFeatureError, ValueError):
    """A feature mapping names keys no pipeline stage matches."""

    def __init__(self, unknown: Sequence[str],
                 stage_names: Sequence[str]) -> None:
        self.unknown = tuple(unknown)
        self.stage_names = tuple(stage_names)
        super().__init__(
            f"unknown feature keys {sorted(self.unknown)}; "
            f"pipeline stages are {list(self.stage_names)}")


class MatchStage(Protocol):
    """Anything that maps scalar features to match probabilities."""

    def response(self, value: float) -> float:
        """Match probability for a scalar feature."""
        ...

    def response_array(self, values: np.ndarray) -> np.ndarray:
        """Vectorised match probabilities for a feature array."""
        ...

    def program(self, params: PCAMParams) -> object:
        """Reprogram the stage with fresh parameters."""
        ...

    @property
    def params(self) -> PCAMParams:
        """The stage's current eight-parameter set."""
        ...


# ----------------------------------------------------------------------
# Composition rules: each reduces the stage axis (axis -2) of a
# (..., n_stages, batch) matrix — a pipeline's (stages, batch) block
# or a bank's (rows, stages, batch) block.  Every rule reduces the
# stage rows in order, so a column's result does not depend on how
# many columns or rows the block has.
# ----------------------------------------------------------------------
def _batch_product(probabilities: np.ndarray) -> np.ndarray:
    return np.multiply.reduce(probabilities, axis=-2)


def _batch_min(probabilities: np.ndarray) -> np.ndarray:
    return np.minimum.reduce(probabilities, axis=-2)


def _batch_geometric(probabilities: np.ndarray) -> np.ndarray:
    return (np.multiply.reduce(probabilities, axis=-2)
            ** (1.0 / probabilities.shape[-2]))


def _batch_mean(probabilities: np.ndarray) -> np.ndarray:
    # np.mean sums a one-column matrix pairwise but a wider one row by
    # row; the explicit row-by-row sum is what np.mean computes for
    # two or more columns, for every width.
    stages = probabilities.shape[-2]
    total = probabilities[..., 0, :].copy()
    for index in range(1, stages):
        total += probabilities[..., index, :]
    return total / stages


#: Composition rules over a (..., n_stages, batch) probability block.
#: ``"product"`` is the paper's.
BATCH_COMPOSITIONS: Mapping[str, Callable[[np.ndarray], np.ndarray]] = {
    "product": _batch_product,
    "min": _batch_min,
    "geometric": _batch_geometric,
    "mean": _batch_mean,
}


class PCAMPipeline:
    """An ordered set of named pCAM stages evaluated in series.

    Parameters
    ----------
    stages:
        Mapping of stage name to match stage.  Iteration order is the
        physical series order.
    composition:
        Key into :data:`BATCH_COMPOSITIONS`; ``"product"`` reproduces the
        paper's Figure 4b behaviour.
    """

    def __init__(self, stages: Mapping[str, MatchStage],
                 composition: str = "product") -> None:
        if not stages:
            raise ValueError("pipeline needs at least one stage")
        if composition not in BATCH_COMPOSITIONS:
            raise ValueError(
                f"unknown composition {composition!r}; "
                f"choose from {sorted(BATCH_COMPOSITIONS)}")
        self._stages = dict(stages)
        self._cells = tuple(self._stages.values())
        self._spans = tuple(f"pcam.stage.{name}" for name in self._stages)
        self._stack = CellStack()
        self._bank: PipelineStack | None = None
        self._composition = composition
        self._compose_batch = BATCH_COMPOSITIONS[composition]
        #: Optional observability hooks (set by the hub wiring): a
        #: :class:`repro.observability.tracing.Tracer` emitting one
        #: span per batch evaluation with a child per stage, and a
        #: :class:`repro.observability.profiling.Profiler` receiving
        #: the ``@profiled`` kernel wall times.  Both default to off.
        self.tracer = None
        self.profiler = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def composition(self) -> str:
        """The :data:`BATCH_COMPOSITIONS` key, fixed at construction:
        the pipeline, its clone and an array storing it all reduce
        with this one rule."""
        return self._composition

    @property
    def stage_names(self) -> tuple[str, ...]:
        """Stage names in physical series order."""
        return tuple(self._stages)

    def __len__(self) -> int:
        return len(self._stages)

    def stage(self, name: str) -> MatchStage:
        """Access one stage by name."""
        try:
            return self._stages[name]
        except KeyError:
            raise KeyError(
                f"no stage {name!r}; stages: {self.stage_names}") from None

    def program_stage(self, name: str, params: PCAMParams) -> None:
        """Reprogram one stage — the per-stage half of update_pCAM()."""
        self.stage(name).program(params)

    def clone_ideal(self) -> "PCAMPipeline":
        """A healthy ideal twin programmed with each stage's intent.

        Works on faulted pipelines because the injection hook keeps
        :attr:`~repro.core.pcam_cell.PCAMCell.intended_params` clean;
        device-realised stages contribute their programmed params.
        The differential and shadow oracles evaluate this twin next
        to the (possibly faulted) original.
        """
        return PCAMPipeline.from_params(
            {name: getattr(stage, "intended_params", stage.params)
             for name, stage in self._stages.items()},
            composition=self.composition)

    # ------------------------------------------------------------------
    # Feature validation
    # ------------------------------------------------------------------
    def _check_mapping(self, features: Mapping[str, object]) -> None:
        missing = [name for name in self._stages if name not in features]
        if missing:
            raise MissingFeatureError(missing, self.stage_names)
        unknown = [key for key in features if key not in self._stages]
        if unknown:
            raise UnknownFeatureError(unknown, self.stage_names)

    def _feature_vector(self, features: Mapping[str, float] |
                        Sequence[float]) -> list[tuple[str, float]]:
        if isinstance(features, Mapping):
            self._check_mapping(features)
            return [(name, float(features[name])) for name in self._stages]
        values = list(features)
        if len(values) != len(self._stages):
            raise ValueError(
                f"expected {len(self._stages)} features, got {len(values)}")
        return list(zip(self._stages, (float(v) for v in values)))

    def _feature_matrix(self, features: Mapping[str, np.ndarray] |
                        np.ndarray) -> np.ndarray:
        """Validate a feature batch into a (n_stages, batch) matrix.

        Accepts either a mapping of stage name to 1-D array (scalars
        broadcast), or a 2-D array of shape (batch, n_stages) with
        columns in stage order.
        """
        if isinstance(features, Mapping):
            self._check_mapping(features)
            columns = []
            for name in self._stages:
                column = np.asarray(features[name], dtype=float)
                if column.ndim > 1:
                    raise ValueError(
                        f"feature {name!r} must be at most 1-D, "
                        f"got shape {column.shape}")
                columns.append(np.atleast_1d(column))
            try:
                columns = np.broadcast_arrays(*columns)
            except ValueError:
                lengths = {name: np.atleast_1d(
                    np.asarray(features[name])).shape[0]
                    for name in self._stages}
                raise ValueError(
                    f"feature arrays must share one batch length, "
                    f"got {lengths}") from None
            return np.array(columns, dtype=float)
        matrix = np.asarray(features, dtype=float)
        if matrix.ndim != 2 or matrix.shape[1] != len(self._stages):
            raise ValueError(
                f"feature matrix must have shape (batch, "
                f"{len(self._stages)}), got {matrix.shape}")
        return matrix.T.copy()

    def _evaluate(self, matrix: np.ndarray, count: int, own=None
                  ) -> np.ndarray:
        """Composite probabilities for a feature matrix.

        ``matrix`` has one row per stage; ``count`` and ``own`` are
        those of :meth:`~repro.core.pcam_cell.CellStack.responses`.
        With a tracer attached every stage runs alone inside its
        ``pcam.stage.<name>`` span; the outputs are the same.
        """
        with maybe_span(self.tracer, "pcam.evaluate_batch", batch=count):
            return self._compose_batch(self._stack.responses(
                self._cells, matrix, count, own=own, tracer=self.tracer,
                spans=self._spans))

    # ------------------------------------------------------------------
    # Batch evaluation (the one true code path)
    # ------------------------------------------------------------------
    @profiled("pcam.evaluate_batch")
    def evaluate_batch(self, features: Mapping[str, np.ndarray] |
                       np.ndarray) -> np.ndarray:
        """Composite match probability for a whole feature batch.

        ``features`` maps each stage name to an array of per-packet
        feature values (or is a (batch, n_stages) matrix); the return
        is the (batch,)-shaped composite probability — one analog
        search result per packet, all evaluated in a single NumPy
        pass.
        """
        matrix = self._feature_matrix(features)
        return self._evaluate(matrix, int(matrix.shape[1]))

    def evaluate_uniform(self, features: Mapping[str, float] |
                         Sequence[float], count: int) -> np.ndarray:
        """Composite probabilities of ``count`` identical feature vectors.

        Equal to :meth:`evaluate_batch` over ``count`` copies of
        ``features`` — same outputs, evaluation counters, RNG draws,
        span and profiler site — but the kernel evaluates its rows
        once; only stages outside the kernel (device-realised,
        subclassed, faulted or non-linear cells) still evaluate
        ``count`` values.  Returns a (count,) array.  The one-pipeline
        case of :meth:`PipelineStack.evaluate_uniform`.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0: {count!r}")
        if self._bank is None:
            self._bank = PipelineStack((self,))
        column = self._row_matrix(self._feature_vector(features)).T
        return self._bank._uniform(column, (count,))[0]

    def evaluate_with_energy_batch(
            self, features: Mapping[str, np.ndarray] | np.ndarray
    ) -> tuple[np.ndarray, float]:
        """(batch probabilities, total evaluation energy in joules).

        Ideal stages contribute zero energy; device stages contribute
        their per-read evaluation energy summed over the batch.
        """
        matrix = self._feature_matrix(features)
        energy = 0.0

        def own(stage: MatchStage, values: np.ndarray) -> np.ndarray:
            nonlocal energy
            if not isinstance(stage, DevicePCAMCell):
                return stage.response_array(values)
            probabilities, stage_energy = stage.evaluate_array(values)
            energy += stage_energy
            return probabilities

        composite = self._evaluate(matrix, int(matrix.shape[1]), own)
        return composite, energy

    # ------------------------------------------------------------------
    # Scalar evaluation (delegates to the batch kernels)
    # ------------------------------------------------------------------
    def _row_matrix(self, pairs: Sequence[tuple[str, float]]
                    ) -> np.ndarray:
        """A validated feature vector as a (1, n_stages) batch matrix.

        ``pairs`` comes from :meth:`_feature_vector` and is already in
        stage order, so the ndarray fast lane of
        :meth:`_feature_matrix` applies — no per-call dict of
        one-element arrays, no re-validation, no broadcast pass.
        """
        return np.array([[value for _, value in pairs]], dtype=float)

    def evaluate(self, features: Mapping[str, float] |
                 Sequence[float]) -> float:
        """Composite match probability for a full feature vector."""
        pairs = self._feature_vector(features)
        return float(self.evaluate_batch(self._row_matrix(pairs))[0])

    def programming_energy_j(self) -> float:
        """Total programming energy of device-realised stages [J]."""
        return sum(stage.programming_energy_j
                   for stage in self._stages.values()
                   if isinstance(stage, DevicePCAMCell))

    def evaluate_with_energy(self, features: Mapping[str, float] |
                             Sequence[float]) -> tuple[float, float]:
        """(probability, evaluation energy in joules) for one vector.

        Ideal stages contribute zero energy; device stages contribute
        their two-read evaluation energy.
        """
        pairs = self._feature_vector(features)
        probabilities, energy = self.evaluate_with_energy_batch(
            self._row_matrix(pairs))
        return float(probabilities[0]), energy

    @classmethod
    def from_params(cls, params: Mapping[str, PCAMParams],
                    composition: str = "product", *,
                    device_backed: bool = False,
                    **device_kwargs: object) -> "PCAMPipeline":
        """Build a pipeline from per-stage parameters.

        With ``device_backed`` every stage is realised on simulated
        memristors (extra keyword arguments are forwarded to
        :class:`DevicePCAMCell`).
        """
        stages: dict[str, MatchStage] = {}
        for name, stage_params in params.items():
            if device_backed:
                stages[name] = DevicePCAMCell(stage_params, **device_kwargs)
            else:
                stages[name] = PCAMCell(stage_params)
        return cls(stages, composition=composition)

    def __repr__(self) -> str:
        return (f"PCAMPipeline(stages={list(self._stages)}, "
                f"composition={self.composition!r})")


class PipelineStack:
    """Several pipelines searched as one bank, in one kernel call.

    The pipelines' cells follow each other, pipeline by pipeline and
    stage by stage, in one :class:`~repro.core.pcam_cell.CellStack`:
    one stacked kernel call evaluates every healthy linear cell of
    every pipeline, and the cells outside the kernel evaluate their
    own values in that row order.  Each pipeline then reduces its
    stage rows with its own :data:`BATCH_COMPOSITIONS` rule, the
    pipelines that share a rule and a stage count in one call.  A
    pipeline's composites do not depend on which pipelines share the
    call, so each equals the pipeline's own evaluation bit for bit.

    Observed pipelines (a tracer or profiler attached, or a
    process-wide profiler) evaluate one by one through their own entry
    points instead, so each evaluation keeps its one
    ``pcam.evaluate_batch`` span, its stage spans and its profiler
    sample however many pipelines share the stack.
    """

    def __init__(self, pipelines: Sequence[PCAMPipeline]) -> None:
        self.pipelines = tuple(pipelines)
        #: The stage name of every stacked cell, in row order.
        self.fields = [name for pipeline in self.pipelines
                       for name in pipeline.stage_names]
        self._cells = [cell for pipeline in self.pipelines
                       for cell in pipeline._cells]
        self._spans = [span for pipeline in self.pipelines
                       for span in pipeline._spans]
        self._sizes = [len(pipeline) for pipeline in self.pipelines]
        self._stack = CellStack()
        starts = np.cumsum([0] + self._sizes).tolist()
        self._bounds = list(zip(starts[:-1], starts[1:]))
        groups: dict[tuple[str, int], list[int]] = {}
        for index, pipeline in enumerate(self.pipelines):
            groups.setdefault((pipeline.composition, len(pipeline)),
                              []).append(index)
        self._groups = [
            (stages, members, np.concatenate([
                np.arange(*self._bounds[index]) for index in members]))
            for (_, stages), members in groups.items()]

    @property
    def tracer(self):
        """The first pipeline's tracer (the stack's span sink)."""
        return self.pipelines[0].tracer

    @property
    def profiler(self):
        """The first pipeline's profiler (the stack's sample sink)."""
        return self.pipelines[0].profiler

    def _observed(self) -> bool:
        return get_default_profiler() is not None or any(
            pipeline.tracer is not None or pipeline.profiler is not None
            for pipeline in self.pipelines)

    def _reduce(self, out: np.ndarray) -> np.ndarray:
        """(pipelines, columns) composites of a (cells, columns) block,
        each group reduced by its first pipeline's rule."""
        pipelines = self.pipelines
        if len(pipelines) == 1:
            return pipelines[0]._compose_batch(out)[None]
        if len(self._groups) == 1:
            stages, _, _ = self._groups[0]
            return pipelines[0]._compose_batch(
                out.reshape(len(pipelines), stages, -1))
        composites = np.empty((len(pipelines), out.shape[1]))
        for stages, members, rows in self._groups:
            composites[members] = pipelines[members[0]]._compose_batch(
                out[rows].reshape(len(members), stages, -1))
        return composites

    def match(self, x: np.ndarray) -> np.ndarray:
        """(pipelines, columns) composites of a (cells, columns) input
        matrix, row ``i`` feeding cell ``i``, in one kernel call; no
        span and no profiler sample."""
        return self._reduce(self._stack.responses(self._cells, x,
                                                  x.shape[1]))

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """:meth:`match`, or when observed each pipeline's own
        :meth:`PCAMPipeline.evaluate_batch` of its rows of ``x``."""
        if self._observed():
            return np.array([
                pipeline.evaluate_batch(x[start:stop].T)
                for pipeline, (start, stop) in zip(self.pipelines,
                                                   self._bounds)])
        return self.match(x)

    def evaluate_uniform(self, features: Sequence[Sequence[float]],
                         counts: Sequence[int]) -> list[np.ndarray]:
        """Pipeline ``j``'s composites of ``counts[j]`` copies of the
        feature vector ``features[j]`` (values in stage order).

        One kernel call evaluates each kernel row once; a cell outside
        the kernel evaluates its pipeline's count of values, pipeline
        by pipeline and then row by row, so its RNG draws are those of
        the pipelines evaluated one after another.  Returns one
        ``(counts[j],)`` array per pipeline.
        """
        if len(self.pipelines) > 1 and self._observed():
            return [pipeline.evaluate_uniform(vector, count)
                    for pipeline, vector, count in zip(self.pipelines,
                                                       features, counts)]
        return self._uniform(np.array(
            [value for vector in features for value in vector],
            dtype=float)[:, None], counts)

    @profiled("pcam.evaluate_batch")
    def _uniform(self, x: np.ndarray, counts: Sequence[int]
                 ) -> list[np.ndarray]:
        """:meth:`evaluate_uniform` of a (cells, 1) input column."""
        per_row = []
        for count, size in zip(counts, self._sizes):
            per_row += [count] * size
        tracer = self.tracer
        with maybe_span(tracer, "pcam.evaluate_batch", batch=sum(counts)):
            out = self._stack.responses(self._cells, x, per_row,
                                        tracer=tracer, spans=self._spans)
        if out.shape[1] == 1:
            return [composite.repeat(count) for composite, count
                    in zip(self._reduce(out), counts)]
        return [pipeline._compose_batch(out[start:stop, :count])
                for pipeline, (start, stop), count
                in zip(self.pipelines, self._bounds, counts)]
