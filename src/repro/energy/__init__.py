"""Energy accounting: units, ledgers, and the Table 1 comparison harness."""

from repro.energy.ledger import (
    ACCOUNT_COMPUTE,
    ACCOUNT_CONVERSION,
    ACCOUNT_MOVEMENT,
    ACCOUNT_STORAGE,
    EnergyLedger,
    ExactJoules,
)
from repro.energy.projections import (
    SwitchProfile,
    TOFINO2_CLASS,
    power_comparison,
    projected_power_w,
)
from repro.energy.units import (
    femtojoules,
    format_energy,
    joules_to_femtojoules,
    joules_to_nanojoules,
    milliseconds,
    nanojoules,
    nanoseconds,
)

__all__ = [
    "ACCOUNT_COMPUTE",
    "ACCOUNT_CONVERSION",
    "ACCOUNT_MOVEMENT",
    "ACCOUNT_STORAGE",
    "EnergyLedger",
    "ExactJoules",
    "SwitchProfile",
    "TOFINO2_CLASS",
    "power_comparison",
    "projected_power_w",
    "femtojoules",
    "format_energy",
    "joules_to_femtojoules",
    "joules_to_nanojoules",
    "milliseconds",
    "nanojoules",
    "nanoseconds",
]
