"""Crossbar-level stuck-cell injection.

Real memristor arrays ship with defects: cells stuck in the HRS or
LRS (forming failures).  This module samples such populations for a
crossbar so the robustness of the analog match process can be
quantified — the reliability face of RQ2.

Fault sampling is **seedable** — every random draw comes from a
caller-supplied :class:`numpy.random.Generator` — and **composable**:
:class:`CrossbarFaultPlan` instances merge with ``|`` so
independently sampled defect populations can be overlaid on one
array.  The pCAM-level fault taxonomy (stuck match lines, drift,
programming variance, converter quantisation, read noise) lives in
:mod:`repro.robustness.models`; this module is the crossbar layer
beneath it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # avoid a device <-> crossbar import cycle
    from repro.crossbar.array import Crossbar

__all__ = ["CrossbarFaultPlan", "inject_crossbar_faults"]


@dataclass(frozen=True)
class CrossbarFaultPlan:
    """A sampled population of stuck cells for one crossbar geometry.

    ``mask`` marks the faulted crossings and ``values`` holds the
    conductance each one is pinned at.  Plans are immutable; merge two
    with ``|`` (the right-hand plan wins where the populations
    overlap) and install the result with
    :meth:`repro.crossbar.array.Crossbar.install_fault_plan`, which
    re-pins the cells inside every subsequent programming pass.
    """

    mask: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.mask.shape != self.values.shape:
            raise ValueError(
                f"mask shape {self.mask.shape} != "
                f"values shape {self.values.shape}")
        if self.mask.dtype != np.bool_:
            raise ValueError("mask must be boolean")

    @property
    def shape(self) -> tuple[int, ...]:
        """Geometry the plan was sampled for."""
        return self.mask.shape

    @property
    def n_faults(self) -> int:
        """Number of pinned crossings."""
        return int(np.count_nonzero(self.mask))

    @classmethod
    def sample(cls, shape: tuple[int, int], fault_rate: float,
               rng: np.random.Generator,
               conductance_bounds: tuple[float, float],
               stuck_on_fraction: float = 0.5) -> "CrossbarFaultPlan":
        """Draw a stuck-cell population from a seeded generator."""
        if not 0.0 <= fault_rate <= 1.0:
            raise ValueError(
                f"fault rate must be in [0, 1]: {fault_rate!r}")
        if not 0.0 <= stuck_on_fraction <= 1.0:
            raise ValueError("stuck-on fraction must be in [0, 1]")
        g_min, g_max = conductance_bounds
        mask = rng.random(shape) < fault_rate
        stuck_on = mask & (rng.random(shape) < stuck_on_fraction)
        values = np.where(stuck_on, g_max, g_min)
        values[~mask] = 0.0
        return cls(mask=mask, values=values)

    def pin(self, conductances: np.ndarray) -> np.ndarray:
        """A copy of ``conductances`` with the faulted cells pinned."""
        if conductances.shape != self.shape:
            raise ValueError(
                f"conductance shape {conductances.shape} != {self.shape}")
        pinned = np.array(conductances, dtype=float, copy=True)
        pinned[self.mask] = self.values[self.mask]
        return pinned

    def __or__(self, other: "CrossbarFaultPlan") -> "CrossbarFaultPlan":
        """Overlay two plans; ``other`` wins on overlapping cells."""
        if other.shape != self.shape:
            raise ValueError(
                f"cannot compose plans of shapes {self.shape} "
                f"and {other.shape}")
        mask = self.mask | other.mask
        values = self.values.copy()
        values[other.mask] = other.values[other.mask]
        return CrossbarFaultPlan(mask=mask, values=values)


def inject_crossbar_faults(crossbar: "Crossbar", fault_rate: float,
                           rng: np.random.Generator,
                           stuck_on_fraction: float = 0.5
                           ) -> np.ndarray:
    """Pin a random fraction of a crossbar's cells at the rails.

    Samples a :class:`CrossbarFaultPlan` from the seeded generator and
    installs it on the crossbar, so the pins persist automatically
    through every later :meth:`~repro.crossbar.array.Crossbar.program`
    pass.  Returns the boolean mask of the faulted cells.
    """
    plan = CrossbarFaultPlan.sample(
        (crossbar.n_rows, crossbar.n_cols), fault_rate, rng,
        crossbar.conductance_bounds, stuck_on_fraction)
    existing = crossbar.fault_plan
    crossbar.install_fault_plan(existing | plan if existing is not None
                                else plan)
    return plan.mask
