"""Analog signal-integrity loss models (RQ2).

The paper's second research question notes that "the match output can
lose its precision depending upon the line losses, signal strength and
interference from the neighboring components", and that this dictates
which network functions may be mapped to the analog domain.

This module provides first-order behavioural models for those effects:

* **IR drop** along word/bit lines: a cell far from the drivers sees a
  reduced effective voltage.
* **Crosstalk** from neighbouring active lines.
* **Sneak-path leakage** through unselected cells.

Each model exposes the attenuation/perturbation it applies so the
compiler (:mod:`repro.core.compiler`) can bound the worst-case match
error of a placement before committing it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.device.variability import check_finite


@dataclass(frozen=True)
class LineLossModel:
    """First-order wire parasitics for a crossbar of a given geometry.

    Parameters
    ----------
    wire_resistance_per_cell_ohm:
        Series resistance contributed by each cell pitch of wire.
    sneak_conductance_s:
        Aggregate leakage conductance of unselected cells per line.
    crosstalk_fraction:
        Fraction of a neighbouring line's signal that couples in.
    """

    wire_resistance_per_cell_ohm: float = 1.0
    sneak_conductance_s: float = 1e-9
    crosstalk_fraction: float = 0.002

    def __post_init__(self) -> None:
        check_finite(
            wire_resistance_per_cell_ohm=self.wire_resistance_per_cell_ohm,
            sneak_conductance_s=self.sneak_conductance_s,
            crosstalk_fraction=self.crosstalk_fraction)
        if self.wire_resistance_per_cell_ohm < 0:
            raise ValueError("wire resistance must be non-negative")
        if self.sneak_conductance_s < 0:
            raise ValueError("sneak conductance must be non-negative")
        if not 0 <= self.crosstalk_fraction < 1:
            raise ValueError("crosstalk fraction must be in [0, 1)")

    @classmethod
    def ideal(cls) -> "LineLossModel":
        """A lossless interconnect (for reference calculations)."""
        return cls(wire_resistance_per_cell_ohm=0.0,
                   sneak_conductance_s=0.0, crosstalk_fraction=0.0)

    def voltage_at_cell(self, drive_voltage: float, distance_cells: int,
                        cell_conductance_s: float) -> float:
        """Effective voltage at a cell ``distance_cells`` from the driver.

        First-order divider: the wire up to the cell forms a series
        resistance ``d * r_wire`` against the cell's own resistance.
        """
        if distance_cells < 0:
            raise ValueError("distance must be non-negative")
        series = distance_cells * self.wire_resistance_per_cell_ohm
        if cell_conductance_s <= 0:
            return drive_voltage
        cell_resistance = 1.0 / cell_conductance_s
        return drive_voltage * cell_resistance / (cell_resistance + series)

    def attenuation_matrix(self, n_rows: int, n_cols: int,
                           conductances: np.ndarray) -> np.ndarray:
        """Per-cell voltage attenuation factors for a whole array.

        The distance of cell (i, j) from the drivers is ``i + j`` cell
        pitches (row driver on the left, column sense on the bottom).
        """
        if conductances.shape != (n_rows, n_cols):
            raise ValueError(
                f"conductances shape {conductances.shape} != "
                f"({n_rows}, {n_cols})")
        rows = np.arange(n_rows)[:, None]
        cols = np.arange(n_cols)[None, :]
        series = (rows + cols) * self.wire_resistance_per_cell_ohm
        with np.errstate(divide="ignore"):
            cell_resistance = np.where(conductances > 0,
                                       1.0 / np.maximum(conductances, 1e-30),
                                       np.inf)
        return cell_resistance / (cell_resistance + series)

    def sneak_current(self, drive_voltage: float, n_unselected: int) -> float:
        """Aggregate sneak-path current for one driven line [A]."""
        if n_unselected < 0:
            raise ValueError("n_unselected must be non-negative")
        return drive_voltage * self.sneak_conductance_s * n_unselected

    def apply_crosstalk(self, signals: np.ndarray) -> np.ndarray:
        """Mix each line's signal with its immediate neighbours.

        Operates along the last axis, so a (batch, n_lines) matrix of
        sensed column currents is mixed row-by-row in one pass.
        """
        values = np.asarray(signals, dtype=float)
        if self.crosstalk_fraction == 0.0 or values.shape[-1] < 2:
            return values.copy()
        mixed = values * (1.0 - 2.0 * self.crosstalk_fraction)
        mixed[..., 0] += values[..., 0] * self.crosstalk_fraction
        mixed[..., -1] += values[..., -1] * self.crosstalk_fraction
        mixed[..., 1:] += values[..., :-1] * self.crosstalk_fraction
        mixed[..., :-1] += values[..., 1:] * self.crosstalk_fraction
        return mixed
