"""Memristive crossbar array simulator.

A crossbar is the canonical in-memory-computing structure: memristors
sit at every wordline/bitline crossing, input voltages drive the
wordlines, and each bitline collects the Ohm's-law sum of its column —
an analog multiply-accumulate with computation colocalized in storage
(paper Figure 1).

The simulator is behavioural: conductances are held as a matrix, the
ideal operation is ``I = G^T V``, and the non-idealities of
:class:`~repro.crossbar.losses.LineLossModel` (IR drop, sneak paths,
crosstalk) plus per-read device noise degrade it.  Energy per operation
is the Joule dissipation of every active cell over the read pulse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.crossbar.losses import LineLossModel
from repro.device.memristor import MemristorParams
from repro.device.variability import VariabilityModel
from repro.observability.profiling import profiled
from repro.observability.tracing import maybe_span


@dataclass(frozen=True)
class MatVecResult:
    """Result of one analog matrix-vector operation."""

    currents_a: np.ndarray
    energy_j: float
    duration_s: float


class Crossbar:
    """An n_rows x n_cols conductance crossbar.

    Parameters
    ----------
    n_rows, n_cols:
        Array geometry (rows = wordlines / inputs, cols = bitlines /
        outputs).
    params:
        Device parameters bounding the programmable conductance window.
    losses:
        Interconnect loss model; defaults to ideal wires.
    variability:
        Per-read multiplicative noise on each cell's current.
    rng:
        Random generator for noise.
    """

    def __init__(self, n_rows: int, n_cols: int,
                 params: MemristorParams | None = None,
                 losses: LineLossModel | None = None,
                 variability: VariabilityModel | None = None,
                 rng: np.random.Generator | None = None) -> None:
        if n_rows < 1 or n_cols < 1:
            raise ValueError(f"geometry must be positive: {n_rows}x{n_cols}")
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.params = params or MemristorParams()
        self.losses = losses or LineLossModel.ideal()
        self.variability = variability or VariabilityModel.ideal()
        self._rng = rng or np.random.default_rng()
        # All cells start in the HRS.
        g_off = 1.0 / self.params.r_off
        self._conductances = self._freeze(np.full((n_rows, n_cols), g_off))
        self._write_energy = 0.0
        self._operations = 0
        self._fault_plan = None
        #: Monotonic matrix version: bumps whenever the conductances
        #: change (program, fault-plan install), so derived state — the
        #: IR-drop attenuation matrix, sensing thresholds — can be
        #: cached with a dirty bit instead of recomputed per read.
        self._version = 0
        self._attenuation_cache: tuple[int, np.ndarray] | None = None
        #: Optional observability hooks: a tracer spanning each batched
        #: read and a profiler timing the ``@profiled`` kernel.
        self.tracer = None
        self.profiler = None

    # ------------------------------------------------------------------
    # Programming
    # ------------------------------------------------------------------
    @staticmethod
    def _freeze(matrix: np.ndarray) -> np.ndarray:
        """Mark a conductance matrix read-only before adopting it."""
        matrix.setflags(write=False)
        return matrix

    @property
    def conductances(self) -> np.ndarray:
        """Read-only view of the programmed conductance matrix [S].

        The array is shared, not copied — mutating it raises.  Callers
        that want a scratch matrix to modify and re-program take
        :meth:`conductances_copy` instead.
        """
        return self._conductances

    def conductances_copy(self) -> np.ndarray:
        """Writable copy of the conductance matrix (mutation intent)."""
        return self._conductances.copy()

    @property
    def version(self) -> int:
        """Monotonic counter of conductance-matrix changes."""
        return self._version

    @property
    def conductance_bounds(self) -> tuple[float, float]:
        """(g_min, g_max) programmable window [S]."""
        return 1.0 / self.params.r_off, 1.0 / self.params.r_on

    def program(self, conductances: np.ndarray,
                write_energy_per_cell_j: float = 1e-12) -> float:
        """Program the whole array; returns the write energy [J].

        Conductances outside the device window are a caller error —
        the compiler is responsible for scaling into the window.
        """
        target = np.asarray(conductances, dtype=float)
        if target.shape != (self.n_rows, self.n_cols):
            raise ValueError(
                f"shape {target.shape} != ({self.n_rows}, {self.n_cols})")
        g_min, g_max = self.conductance_bounds
        if target.min() < g_min * (1 - 1e-9) or target.max() > g_max * (1 + 1e-9):
            raise ValueError(
                f"conductances outside device window "
                f"[{g_min:.3e}, {g_max:.3e}] S")
        if self._fault_plan is not None:
            target = self._fault_plan.pin(target)
        changed = int(np.count_nonzero(
            ~np.isclose(target, self._conductances)))
        self._conductances = self._freeze(target.copy())
        self._version += 1
        energy = changed * write_energy_per_cell_j
        self._write_energy += energy
        return energy

    def program_normalised(self, weights: np.ndarray,
                           write_energy_per_cell_j: float = 1e-12) -> float:
        """Program weights in [0, 1] mapped linearly onto the window."""
        w = np.asarray(weights, dtype=float)
        if w.min() < 0.0 or w.max() > 1.0:
            raise ValueError("normalised weights must lie in [0, 1]")
        g_min, g_max = self.conductance_bounds
        return self.program(g_min + w * (g_max - g_min),
                            write_energy_per_cell_j)

    @property
    def write_energy_j(self) -> float:
        """Cumulative programming energy [J]."""
        return self._write_energy

    @property
    def fault_plan(self):
        """The installed stuck-cell plan, or None when healthy."""
        return self._fault_plan

    def install_fault_plan(self, plan) -> None:
        """Pin cells per a :class:`repro.device.faults.CrossbarFaultPlan`.

        The pins are applied immediately and re-applied inside every
        subsequent :meth:`program` call, so program-and-verify passes
        can never revive a stuck cell.
        """
        if plan.shape != (self.n_rows, self.n_cols):
            raise ValueError(
                f"plan shape {plan.shape} != "
                f"({self.n_rows}, {self.n_cols})")
        self._fault_plan = plan
        self._conductances = self._freeze(plan.pin(self._conductances))
        self._version += 1

    def clear_fault_plan(self) -> None:
        """Remove the stuck-cell plan (pinned values stay until the
        next :meth:`program`)."""
        self._fault_plan = None

    @property
    def operations(self) -> int:
        """Number of analog matrix-vector operations performed."""
        return self._operations

    # ------------------------------------------------------------------
    # Analog compute
    # ------------------------------------------------------------------
    def matvec(self, voltages: np.ndarray, duration_s: float = 1e-9, *,
               noisy: bool = True) -> MatVecResult:
        """One analog matrix-vector multiply ``I = G^T V``.

        Applies IR-drop attenuation per cell, optional multiplicative
        read noise, sneak-path leakage per column, and crosstalk
        between adjacent bitlines.  Energy is the sum of per-cell Joule
        dissipation plus sneak losses over the read pulse.

        Delegates to :meth:`matvec_batch` with a batch of one, so the
        scalar and batched sensing paths are a single kernel (and a
        shared RNG draws the same noise stream either way).
        """
        v = np.asarray(voltages, dtype=float)
        if v.shape != (self.n_rows,):
            raise ValueError(f"expected {self.n_rows} voltages, got {v.shape}")
        result = self.matvec_batch(v[None, :], duration_s, noisy=noisy)
        return MatVecResult(currents_a=result.currents_a[0],
                            energy_j=result.energy_j,
                            duration_s=duration_s)

    @profiled("crossbar.matvec_batch")
    def matvec_batch(self, voltages: np.ndarray,
                     duration_s: float = 1e-9, *,
                     noisy: bool = True) -> MatVecResult:
        """A burst of analog matrix-vector multiplies in one NumPy pass.

        ``voltages`` has shape (batch, n_rows); the result's
        ``currents_a`` has shape (batch, n_cols) and ``energy_j`` is
        the total dissipation of the whole burst.  Each batch item
        models one read cycle, so noise is drawn independently per
        item and ``operations`` advances by the batch size.
        """
        vb = np.asarray(voltages, dtype=float)
        if vb.ndim != 2 or vb.shape[1] != self.n_rows:
            raise ValueError(
                f"expected (batch, {self.n_rows}) voltages, "
                f"got {vb.shape}")
        if duration_s <= 0:
            raise ValueError(f"duration must be positive: {duration_s!r}")
        with maybe_span(self.tracer, "crossbar.matvec_batch",
                        batch=int(vb.shape[0]), rows=self.n_rows,
                        cols=self.n_cols):
            return self._matvec_batch_kernel(vb, duration_s, noisy)

    def _attenuation(self) -> np.ndarray:
        """The IR-drop attenuation matrix, cached against the dirty bit.

        Recomputed only when the conductance matrix version moved
        (program / fault-plan install); loss models are immutable, so
        the version is the complete cache key.
        """
        cache = self._attenuation_cache
        if cache is not None and cache[0] == self._version:
            return cache[1]
        attenuation = self.losses.attenuation_matrix(
            self.n_rows, self.n_cols, self._conductances)
        self._attenuation_cache = (self._version, attenuation)
        return attenuation

    def _matvec_batch_kernel(self, vb: np.ndarray, duration_s: float,
                             noisy: bool) -> MatVecResult:
        attenuation = self._attenuation()
        effective_v = vb[:, :, None] * attenuation[None, :, :]
        cell_currents = effective_v * self._conductances[None, :, :]
        if noisy and self.variability.read_sigma > 0.0:
            noise = self._rng.lognormal(
                mean=0.0, sigma=self.variability.read_sigma,
                size=cell_currents.shape)
            cell_currents = cell_currents * noise

        column_currents = cell_currents.sum(axis=1)
        # Sneak leakage: every driven row leaks into each column via
        # unselected paths.
        sneak_per_column = self.losses.sneak_current(
            np.abs(vb).sum(axis=1), self.n_rows - 1)
        column_currents = column_currents + sneak_per_column[:, None]
        column_currents = self.losses.apply_crosstalk(column_currents)

        cell_energy = float(
            np.abs(effective_v * cell_currents).sum() * duration_s)
        sneak_energy = float(
            (sneak_per_column * self.n_cols
             * np.abs(vb).max(axis=1, initial=0.0)).sum() * duration_s)
        self._operations += vb.shape[0]
        return MatVecResult(currents_a=column_currents,
                            energy_j=cell_energy + sneak_energy,
                            duration_s=duration_s)

    def ideal_matvec(self, voltages: np.ndarray) -> np.ndarray:
        """Lossless, noiseless ``G^T V`` for error analysis."""
        v = np.asarray(voltages, dtype=float)
        if v.shape != (self.n_rows,):
            raise ValueError(f"expected {self.n_rows} voltages, got {v.shape}")
        return self._conductances.T @ v

    def relative_error(self, voltages: np.ndarray,
                       trials: int = 8) -> float:
        """Mean relative L2 error of noisy vs ideal matvec outputs.

        The compiler uses this to decide whether a function's precision
        class can be met by an analog placement (RQ2).
        """
        ideal = self.ideal_matvec(voltages)
        norm = np.linalg.norm(ideal)
        if norm == 0.0:
            return 0.0
        errors = []
        for _ in range(trials):
            measured = self.matvec(voltages).currents_a
            errors.append(np.linalg.norm(measured - ideal) / norm)
        return float(np.mean(errors))
