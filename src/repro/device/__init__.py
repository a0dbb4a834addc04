"""Memristor device substrate: device model, dataset, energy.

Implements the Nb-doped SrTiO3 memristor the paper builds on, plus the
synthetic measurement campaign substituting for the (non-public)
experimental chip dataset.  See DESIGN.md section 2 for the
substitution rationale.
"""

from repro.device.dataset import (
    MemristorDataset,
    PulseTrainRecord,
    REFERENCE_READ_DURATION_S,
    SweepRecord,
    generate_dataset,
)
from repro.device.faults import CrossbarFaultPlan, inject_crossbar_faults
from repro.device.energy import (
    BEST_DIGITAL_ENERGY_J_PER_BIT,
    EnergyStatistics,
    energy_histogram,
    energy_statistics,
)
from repro.device.memristor import MemristorParams, NbSTOMemristor, ReadResult
from repro.device.state_machine import (
    AnalogStateMachine,
    ComputeResult,
    DeviceStateMachine,
)
from repro.device.variability import VariabilityModel

__all__ = [
    "AnalogStateMachine",
    "BEST_DIGITAL_ENERGY_J_PER_BIT",
    "ComputeResult",
    "CrossbarFaultPlan",
    "DeviceStateMachine",
    "EnergyStatistics",
    "inject_crossbar_faults",
    "MemristorDataset",
    "MemristorParams",
    "NbSTOMemristor",
    "PulseTrainRecord",
    "REFERENCE_READ_DURATION_S",
    "ReadResult",
    "SweepRecord",
    "VariabilityModel",
    "energy_histogram",
    "energy_statistics",
    "generate_dataset",
]
