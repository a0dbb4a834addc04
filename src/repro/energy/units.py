"""Unit helpers for energy, time and voltage quantities.

All internal computations in :mod:`repro` use base SI units (joules,
seconds, volts, amperes, ohms, siemens).  The paper reports energies in
fJ/bit and nJ/bit and latencies in ns; these helpers convert between the
SI-internal representation and the paper's reporting units.
"""

from __future__ import annotations

#: Multiplicative scale factors relative to the base SI unit.
ATTO = 1e-18
FEMTO = 1e-15
PICO = 1e-12
NANO = 1e-9
MICRO = 1e-6
MILLI = 1e-3
KILO = 1e3
MEGA = 1e6
GIGA = 1e9


def joules_to_femtojoules(energy_j: float) -> float:
    """Convert joules to femtojoules (the unit of Table 1's energy rows)."""
    return energy_j / FEMTO


def joules_to_nanojoules(energy_j: float) -> float:
    """Convert joules to nanojoules (used for the pCAM peak energy)."""
    return energy_j / NANO


def femtojoules(value_fj: float) -> float:
    """Express ``value_fj`` femtojoules in joules."""
    return value_fj * FEMTO


def nanojoules(value_nj: float) -> float:
    """Express ``value_nj`` nanojoules in joules."""
    return value_nj * NANO


def nanoseconds(value_ns: float) -> float:
    """Express ``value_ns`` nanoseconds in seconds."""
    return value_ns * NANO


def milliseconds(value_ms: float) -> float:
    """Express ``value_ms`` milliseconds in seconds."""
    return value_ms * MILLI


def format_energy(energy_j: float) -> str:
    """Render an energy with an auto-selected engineering prefix.

    >>> format_energy(1e-17)
    '0.010 fJ'
    >>> format_energy(1.6e-10)
    '0.160 nJ'
    """
    if energy_j == 0:
        return "0 J"
    magnitude = abs(energy_j)
    # Accept fractional leading digits down to 0.01 so the paper's
    # reporting style ("0.16 nJ", "0.01 fJ") is preserved.
    for scale, suffix in ((1.0, "J"), (MILLI, "mJ"), (MICRO, "uJ"),
                          (NANO, "nJ"), (PICO, "pJ"), (FEMTO, "fJ"),
                          (ATTO, "aJ")):
        if magnitude >= 0.01 * scale:
            return f"{energy_j / scale:.3f} {suffix}"
    return f"{energy_j / ATTO:.3e} aJ"
