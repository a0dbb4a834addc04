"""Device fault injection.

Real memristor arrays ship with defects: cells stuck in the HRS or
LRS (forming failures), and cells whose state drifts or programs
imprecisely.  This module wraps the device and crossbar models with
injectable faults so the robustness of the analog match process can
be quantified — the reliability face of RQ2.

Fault sampling is **seedable** — every random draw comes from a
caller-supplied :class:`numpy.random.Generator` — and **composable**:
a :class:`FaultyMemristor` accepts any non-conflicting set of
:class:`FaultType` members, and :class:`CrossbarFaultPlan` instances
merge with ``|`` so independently sampled defect populations can be
overlaid on one array.  Functional (transfer-function-level) fault
models for pCAM cells live in :mod:`repro.robustness.models`; this
module is the physical-device layer beneath them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.device.memristor import NbSTOMemristor

if TYPE_CHECKING:  # avoid a device <-> crossbar import cycle
    from repro.crossbar.array import Crossbar

__all__ = ["CrossbarFaultPlan", "FaultType", "FaultyMemristor",
           "inject_crossbar_faults"]


class FaultType(enum.Enum):
    """Defect classes observed in memristive arrays."""

    #: Cell permanently in the high-resistance state.
    STUCK_OFF = "stuck_off"
    #: Cell permanently in the low-resistance state.
    STUCK_ON = "stuck_on"
    #: Cell programs, but lands far from the target (loose forming).
    IMPRECISE = "imprecise"


class FaultyMemristor(NbSTOMemristor):
    """A memristor with one or more injected defects.

    ``fault`` may be a single :class:`FaultType` or any iterable of
    them: ``STUCK_OFF`` / ``STUCK_ON`` pin the state regardless of
    programming (and are mutually exclusive); ``IMPRECISE`` multiplies
    every programming target's error tolerance by
    ``imprecision_factor``.  When a stuck fault is combined with
    ``IMPRECISE`` the stuck fault dominates — a pinned cell never
    programs, loosely or otherwise.

    Pass a seeded ``rng`` for reproducible noise, matching the
    generator discipline of the rest of the device layer.
    """

    def __init__(self, fault: FaultType | Iterable[FaultType], *args,
                 imprecision_factor: float = 20.0,
                 rng: np.random.Generator | None = None, **kwargs) -> None:
        super().__init__(*args, rng=rng, **kwargs)
        faults = (frozenset([fault]) if isinstance(fault, FaultType)
                  else frozenset(fault))
        if not faults:
            raise ValueError("need at least one fault type")
        if {FaultType.STUCK_OFF, FaultType.STUCK_ON} <= faults:
            raise ValueError(
                "a cell cannot be stuck at both rails at once")
        self.faults = faults
        if imprecision_factor < 1.0:
            raise ValueError(
                f"imprecision factor must be >= 1: {imprecision_factor!r}")
        self.imprecision_factor = imprecision_factor
        if FaultType.STUCK_OFF in faults:
            self._state = 0.0
        elif FaultType.STUCK_ON in faults:
            self._state = 1.0

    @property
    def fault(self) -> FaultType:
        """The dominant fault (stuck faults outrank imprecision).

        Retained for callers written against the single-fault API.
        """
        for dominant in (FaultType.STUCK_OFF, FaultType.STUCK_ON,
                         FaultType.IMPRECISE):
            if dominant in self.faults:
                return dominant
        raise AssertionError("unreachable: fault set is never empty")

    @property
    def _stuck(self) -> bool:
        return (FaultType.STUCK_OFF in self.faults
                or FaultType.STUCK_ON in self.faults)

    def apply_pulse(self, voltage_v: float, width_s: float,
                    substeps: int = 32) -> float:
        """Pulse the device; stuck cells dissipate but do not move."""
        if self._stuck:
            # The pulse dissipates energy but moves nothing.
            current = abs(self.current(voltage_v))
            self._pulses += 1
            return abs(voltage_v) * current * width_s
        return super().apply_pulse(voltage_v, width_s, substeps)

    def program_state(self, target: float, *, tolerance: float = 0.01,
                      max_pulses: int = 200,
                      pulse_width_s: float = 10e-9) -> float:
        """Program-and-verify, honouring the injected defects."""
        if self._stuck:
            # Program-and-verify gives up after max_pulses on a stuck
            # cell; model the bounded energy of that attempt.
            if abs(target - self._state) <= tolerance:
                return 0.0
            current = abs(self.current(self.params.v_threshold + 0.5))
            return (max_pulses * abs(self.params.v_threshold + 0.5)
                    * current * pulse_width_s)
        if FaultType.IMPRECISE in self.faults:
            tolerance = tolerance * self.imprecision_factor
        return super().program_state(target, tolerance=min(0.49, tolerance),
                                     max_pulses=max_pulses,
                                     pulse_width_s=pulse_width_s)


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
