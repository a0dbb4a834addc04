"""Memristor-based TCAM (digital matching on analog devices).

The middle column of the paper's taxonomy (Figure 3): memristors used
for *digital* match-action, as in the authors' earlier TCAmMCogniGron
work [42, 43] and the HPE regex engines [15-17].  Match semantics are
identical to a transistor TCAM, but storage is non-volatile and the
search energy comes from the device physics instead of CMOS cells —
and because computation happens inside the storage array, the data-
movement account stays near zero (Figure 1).

Cell encoding: each ternary cell holds two complementary memristors.
During a search, the cell conducts strongly (LRS path) only when the
key bit *disagrees* with the stored bit, discharging the match line;
a matching or don't-care cell presents only its HRS leakage.

Energy model: a mismatching cell dumps its share of the precharged
match-line capacitance through the LRS path (the discharge is
*capacitance-limited*, not device-limited: ``C_ml * V^2`` per cell).
A matching cell costs only the precharge refresh losses plus the HRS
leakage of its devices over the search pulse.  This lands in the
1-16 fJ/bit corridor published for memristor TCAMs [42].
"""

from __future__ import annotations

import numpy as np

from repro.device.memristor import MemristorParams, NbSTOMemristor
from repro.device.variability import VariabilityModel
from repro.energy.ledger import (
    ACCOUNT_COMPUTE,
    ACCOUNT_MOVEMENT,
    EnergyLedger,
    Quantum,
)
from repro.tcam.tcam import TCAM

#: The memristor TCAM's (empty) data-movement quantum per cell.
_NO_MOVEMENT = Quantum(0.0)

#: Search (read) voltage applied to cells during a match cycle [V].
DEFAULT_SEARCH_VOLTAGE_V = 1.0
#: Match-line precharge capacitance per cell [F].
DEFAULT_MATCHLINE_CAP_PER_CELL_F = 1.0e-15


class MemristorTCAM(TCAM):
    """TCAM with device-derived energy and near-zero movement cost.

    Inherits the match semantics (patterns, priorities, search) from
    :class:`~repro.tcam.tcam.TCAM` and replaces the energy model: the
    searches of one batch slice are charged per cell, from the popcount
    of the masked XOR the shared search kernel computes.
    """

    def __init__(self, width_bits: int,
                 params: MemristorParams | None = None,
                 search_voltage_v: float = DEFAULT_SEARCH_VOLTAGE_V,
                 search_latency_s: float = 1e-9,
                 matchline_cap_per_cell_f: float =
                 DEFAULT_MATCHLINE_CAP_PER_CELL_F,
                 ledger: EnergyLedger | None = None) -> None:
        super().__init__(width_bits=width_bits,
                         search_latency_s=search_latency_s,
                         ledger=ledger)
        if search_voltage_v <= 0:
            raise ValueError("search voltage must be positive")
        self.params = params or MemristorParams()
        self.search_voltage_v = search_voltage_v
        self.matchline_cap_per_cell_f = matchline_cap_per_cell_f
        self._energy_inputs: tuple | None = None

    #: Fraction of the precharge energy lost refreshing a match line
    #: that was *not* discharged (clock feed-through, leakage top-up).
    _REFRESH_FRACTION = 0.2

    def _cell_energies(self) -> tuple[Quantum, Quantum]:
        """(matching, mismatching) energy of one cell in a search, as
        prepared ledger quanta, from the device model, rerun only when
        one of its inputs (params, voltage, latency, capacitance) has
        changed."""
        inputs = (self.params, self.search_voltage_v,
                  self.search_latency_s, self.matchline_cap_per_cell_f)
        if inputs != self._energy_inputs:
            precharge = (self.matchline_cap_per_cell_f
                         * self.search_voltage_v ** 2)
            hrs_cell = NbSTOMemristor(params=self.params, state=0.0,
                                      variability=VariabilityModel.ideal())
            leakage = hrs_cell.read(self.search_voltage_v,
                                    self.search_latency_s,
                                    noisy=False).energy_j
            # A mismatching cell fully discharges its slice of the
            # match line through the LRS path (capacitance-limited).
            self._energies = (Quantum(self._REFRESH_FRACTION * precharge
                                      + leakage), Quantum(precharge))
            self._energy_inputs = inputs
        return self._energies

    def _search_quanta(self) -> None:
        """None: a memristor search is charged per cell, from its
        mismatch count (:meth:`_charge`)."""
        return None

    def _charge(self, ledger: EnergyLedger, diff: np.ndarray,
                n_keys: int) -> float:
        """Book a burst of searches to ``ledger`` from its masked XOR;
        return joules.

        Every stored cell takes part in every key's search: a
        mismatching cell (a set bit of ``diff = (key ^ bits) & care``,
        counted over its unpacked bytes; the search's sentinel row has
        none) discharges its match-line slice, the rest leak.  All of
        it is computation (colocalized storage, nothing to shuttle).
        Integer cell counts partition linearly across keys, so the
        booked joules are bit-identical however the same keys are
        batched or sharded.
        """
        total_cells = n_keys * len(self._patterns) * self.width_bits
        mismatching = int(np.count_nonzero(np.unpackbits(
            diff.view(np.uint8))))
        leak, discharge = self._cell_energies()
        ledger.charge_quanta(ACCOUNT_COMPUTE, discharge, mismatching)
        ledger.charge_quanta(ACCOUNT_COMPUTE, leak,
                             total_cells - mismatching)
        ledger.charge_quanta(ACCOUNT_MOVEMENT, _NO_MOVEMENT, total_cells)
        return (mismatching * discharge.joules
                + (total_cells - mismatching) * leak.joules)

    def energy_per_bit_for(self, mismatch_fraction: float = 0.5) -> float:
        """Expected per-bit search energy at a given mismatch rate [J].

        Useful for apples-to-apples comparison against the fJ/bit
        figures in Table 1.
        """
        if not 0.0 <= mismatch_fraction <= 1.0:
            raise ValueError("mismatch fraction must be in [0, 1]")
        leak, discharge = self._cell_energies()
        return (mismatch_fraction * discharge.joules
                + (1.0 - mismatch_fraction) * leak.joules)
