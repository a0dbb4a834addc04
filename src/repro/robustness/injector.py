"""Seeded application of fault models to pipelines, arrays, and AQMs.

The :class:`FaultInjector` walks a structure's injection surface —
pipeline stages, each array word's stages, an AQM's pipeline — flips
a seeded coin per cell against ``cell_fraction``, and attaches a freshly
materialised :class:`~repro.robustness.models.CellFault` to each
selected cell.  Everything is drawn from one generator, so a campaign
seed reproduces the exact defect population.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.pcam_array import PCAMArray
from repro.core.pcam_cell import PCAMCell
from repro.core.pcam_pipeline import PCAMPipeline
from repro.robustness.models import FaultModel

__all__ = ["FaultInjector", "InjectionReport"]


@dataclass
class InjectionReport:
    """Which cells an injection pass touched."""

    model: str
    #: Pipeline stage names that received a fault.
    stages: list[str] = field(default_factory=list)
    #: (word_index, field) pairs of faulted array cells.
    array_cells: list[tuple[int, str]] = field(default_factory=list)

    @property
    def n_injected(self) -> int:
        """Total number of cells faulted by the pass."""
        return len(self.stages) + len(self.array_cells)


class FaultInjector:
    """Applies one fault model to analog structures, seeded.

    Parameters
    ----------
    model:
        The fault distribution to sample per selected cell.
    cell_fraction:
        Probability that any given cell is selected.  1.0 faults every
        cell (the worst case the envelope must bound); small fractions
        model sparse manufacturing defects.
    rng:
        Seeded generator; both cell selection and fault materialisation
        draw from it, in cell-iteration order, so injection is a pure
        function of (structure, model, seed).
    """

    def __init__(self, model: FaultModel, *, cell_fraction: float = 1.0,
                 rng: np.random.Generator | None = None) -> None:
        if not 0.0 <= cell_fraction <= 1.0:
            raise ValueError(
                f"cell fraction must be in [0, 1]: {cell_fraction!r}")
        self.model = model
        self.cell_fraction = cell_fraction
        self._rng = rng or np.random.default_rng()

    def _maybe_inject(self, cell: PCAMCell) -> bool:
        selected = (self.cell_fraction >= 1.0
                    or self._rng.random() < self.cell_fraction)
        if selected:
            cell.inject_fault(
                self.model.materialise(cell.intended_params, self._rng))
        return selected

    def inject_pipeline(self, pipeline: PCAMPipeline) -> InjectionReport:
        """Fault a pipeline's stages; returns which stages were hit.

        Only functional (ideal) cells carry the injection hook;
        device-realised stages model their own physics-level noise and
        are skipped.
        """
        return InjectionReport(model=self.model.name,
                               stages=self._inject_stages(pipeline))

    def _inject_stages(self, pipeline: PCAMPipeline) -> list[str]:
        """Coin-flip each functional stage in series order; hit names."""
        hit = []
        for name in pipeline.stage_names:
            stage = pipeline.stage(name)
            if isinstance(stage, PCAMCell) and self._maybe_inject(stage):
                hit.append(name)
        return hit

    def inject_array(self, array: PCAMArray) -> InjectionReport:
        """Fault an array's stored words, each word as a pipeline."""
        report = InjectionReport(model=self.model.name)
        for index, word in enumerate(array.words):
            report.array_cells.extend(
                (index, name) for name in self._inject_stages(word))
        return report

    def inject_aqm(self, aqm) -> InjectionReport:
        """Fault an analog AQM through its pipeline hook."""
        return self.inject_pipeline(aqm.pipeline)

    @staticmethod
    def clear_array(array: PCAMArray) -> None:
        """Detach every fault from an array's cells."""
        for word in array.words:
            for name in word.stage_names:
                word.stage(name).clear_fault()
