"""Match-action tables of the switch model.

Two table species, mirroring Figure 5:

* :class:`DigitalMatchActionTable` — TCAM-backed: ternary key match,
  per-entry action, binary verdicts.  (The analog species,
  :class:`repro.core.match_action.AnalogMatchActionTable`, lives in
  the core package because it *is* the contribution.)
* :class:`FieldKeySpec` — declares how packet fields concatenate into
  the TCAM search key, so tables stay protocol-agnostic.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.packet import Packet
from repro.energy.ledger import EnergyLedger
from repro.tcam.tcam import TCAM, TernaryPattern, key_from_int

__all__ = ["DigitalMatchActionTable", "FieldKeySpec", "TableLookup"]

#: An action mutates the packet and/or returns a verdict string.
TableAction = Callable[[Packet], str | None]


@dataclass(frozen=True)
class FieldKeySpec:
    """How one packet field contributes bits to the search key.

    ``encoder`` turns the field value into an unsigned int of
    ``width`` bits; IPv4 address strings are handled natively.
    """

    field: str
    width: int
    encoder: Callable[[object], int] | None = None

    def encode(self, value: object) -> int:
        """The field value as an unsigned int of ``width`` bits."""
        if self.encoder is not None:
            encoded = self.encoder(value)
        elif isinstance(value, str) and self.width == 32:
            encoded = int(ipaddress.IPv4Address(value))
        elif isinstance(value, bool):
            encoded = int(value)
        elif isinstance(value, int):
            encoded = value
        else:
            raise TypeError(
                f"cannot encode field {self.field!r} value {value!r}")
        if encoded < 0 or encoded >= (1 << self.width):
            raise ValueError(
                f"field {self.field!r} value {encoded} does not fit in "
                f"{self.width} bits")
        return encoded


@dataclass(frozen=True)
class TableLookup:
    """Outcome of one digital table lookup."""

    hit: bool
    verdict: str | None
    entry_index: int | None
    energy_j: float


class DigitalMatchActionTable:
    """A TCAM-backed match-action table with per-entry actions."""

    def __init__(self, name: str, key_spec: Sequence[FieldKeySpec],
                 tcam: TCAM | None = None,
                 default_verdict: str | None = None,
                 ledger: EnergyLedger | None = None) -> None:
        if not name:
            raise ValueError("table needs a name")
        if not key_spec:
            raise ValueError("table needs at least one key field")
        self.name = name
        self.key_spec = tuple(key_spec)
        self.width = sum(spec.width for spec in key_spec)
        self.ledger = ledger if ledger is not None else EnergyLedger()
        self.tcam = tcam if tcam is not None else TCAM(
            self.width, ledger=self.ledger)
        if self.tcam.width_bits != self.width:
            raise ValueError(
                f"TCAM width {self.tcam.width_bits} != key width "
                f"{self.width}")
        self.default_verdict = default_verdict
        self._actions: list[TableAction | None] = []
        self._verdicts: list[str | None] = []
        self._lookups = 0

    def __len__(self) -> int:
        return len(self._actions)

    @property
    def lookups(self) -> int:
        """Number of lookups performed."""
        return self._lookups

    def add_entry(self, pattern: TernaryPattern | str,
                  verdict: str | None = None,
                  action: TableAction | None = None,
                  priority: int | None = None) -> int:
        """Install a ternary entry with an optional action callable."""
        index = self.tcam.add(pattern, priority=priority)
        self._actions.append(action)
        self._verdicts.append(verdict)
        return index

    def key_for(self, packet: Packet) -> int:
        """Concatenate the packet's fields into the search key."""
        key = 0
        for spec in self.key_spec:
            value = packet.field(spec.field)
            if value is None:
                raise KeyError(
                    f"packet missing field {spec.field!r} for table "
                    f"{self.name!r}")
            key = (key << spec.width) | spec.encode(value)
        return key

    def lookup(self, packet: Packet) -> TableLookup:
        """Search, run the winning entry's action, return the verdict."""
        result = self.tcam.search(self.key_for(packet))
        self._lookups += 1
        return self._outcome(packet, result.best_index, result.energy_j)

    def lookup_batch(self, packets: Sequence[Packet]
                     ) -> list[TableLookup]:
        """Search a whole chunk in one vectorised TCAM pass.

        Per-packet verdicts, actions and charged energy are identical
        to looping :meth:`lookup`; the batch's total search energy is
        attributed evenly across its lookups.
        """
        if not packets:
            return []
        result = self.tcam.search_batch(np.array(
            [key_from_int(self.key_for(packet), self.width)
             for packet in packets]))
        self._lookups += len(packets)
        share = result.energy_j / len(packets)
        return [self._outcome(packet, index if index >= 0 else None, share)
                for packet, index in zip(packets,
                                         result.best_indices.tolist())]

    def _outcome(self, packet: Packet, index: int | None,
                 energy_j: float) -> TableLookup:
        """Run the winning entry's action (if any) into a lookup."""
        if index is None:
            return TableLookup(hit=False, verdict=self.default_verdict,
                               entry_index=None, energy_j=energy_j)
        verdict = self._verdicts[index]
        action = self._actions[index]
        if action is not None:
            action_verdict = action(packet)
            if action_verdict is not None:
                verdict = action_verdict
        return TableLookup(hit=True, verdict=verdict, entry_index=index,
                           energy_j=energy_j)
