"""5-tuple ACL firewall on the digital TCAM.

The second high-precision, deterministic function of Figure 5 ("IP
Filtering", "Hard Network Policies"): first matching rule wins, with
an explicit default action.
"""

from __future__ import annotations

import enum
import ipaddress
from dataclasses import dataclass

import numpy as np

from repro.packet import Packet
from repro.energy.ledger import EnergyLedger
from repro.tcam.tcam import TCAM, TernaryPattern

__all__ = ["Action", "Firewall", "FirewallRule"]


class Action(enum.Enum):
    """Verdict of an ACL rule: permit or deny."""
    PERMIT = "permit"
    DENY = "deny"


_ACTION_CODES = {action: code for code, action in enumerate(Action)}


def _prefix_bits(prefix: str | None, width: int) -> tuple[int, int]:
    """(value, mask) of an IPv4 prefix, or fully wildcarded."""
    if prefix is None:
        return 0, 0
    network = ipaddress.ip_network(prefix, strict=False)
    mask = (((1 << network.prefixlen) - 1)
            << (width - network.prefixlen)) if network.prefixlen else 0
    return int(network.network_address), mask


def _exact_bits(value: int | None, width: int) -> tuple[int, int]:
    """(value, mask) of an exact field, or fully wildcarded."""
    if value is None:
        return 0, 0
    if value < 0 or value >= (1 << width):
        raise ValueError(f"value {value} does not fit in {width} bits")
    return value, (1 << width) - 1


@dataclass(frozen=True)
class FirewallRule:
    """One ACL line; ``None`` fields are wildcards."""

    action: Action
    src_prefix: str | None = None
    dst_prefix: str | None = None
    src_port: int | None = None
    dst_port: int | None = None
    protocol: int | None = None


class Firewall:
    """First-match 5-tuple ACL over a 104-bit TCAM.

    Key layout (MSB -> LSB): src_ip(32) dst_ip(32) src_port(16)
    dst_port(16) protocol(8).
    """

    WIDTH = 32 + 32 + 16 + 16 + 8

    def __init__(self, default_action: Action = Action.DENY,
                 tcam: TCAM | None = None,
                 ledger: EnergyLedger | None = None) -> None:
        self.default_action = default_action
        self.ledger = ledger if ledger is not None else EnergyLedger()
        self.tcam = tcam if tcam is not None else TCAM(
            self.WIDTH, ledger=self.ledger)
        self._actions: list[Action] = []
        self._rules: list[FirewallRule] = []

    def __len__(self) -> int:
        return len(self._rules)

    @property
    def rules(self) -> tuple[FirewallRule, ...]:
        """All installed rules, in match order."""
        return tuple(self._rules)

    @property
    def generation(self) -> int:
        """Version of the rule set; bumps whenever the table mutates.

        Classification results cached outside the firewall (the
        data-plane flow cache) key on this to invalidate on update.
        """
        return self.tcam.generation

    def add_rule(self, rule: FirewallRule) -> None:
        """Append an ACL line (earlier lines take precedence)."""
        sections = (
            _prefix_bits(rule.src_prefix, 32),
            _prefix_bits(rule.dst_prefix, 32),
            _exact_bits(rule.src_port, 16),
            _exact_bits(rule.dst_port, 16),
            _exact_bits(rule.protocol, 8),
        )
        widths = (32, 32, 16, 16, 8)
        value = 0
        mask = 0
        for (section_value, section_mask), width in zip(sections, widths):
            value = (value << width) | section_value
            mask = (mask << width) | section_mask
        pattern = TernaryPattern.from_value(value, self.WIDTH, mask=mask)
        self.tcam.add(pattern, priority=len(self._rules))
        self._actions.append(rule.action)
        self._rules.append(rule)

    def _key_for(self, packet: Packet) -> int:
        """The packet's 104-bit ACL key.

        Raises :class:`ValueError` for a non-IPv4 address or a field
        that does not fit its slot, as the batched path does.
        """
        key = 0
        for name in ("src_ip", "dst_ip"):
            address = ipaddress.IPv4Address(packet.field(name, "0.0.0.0"))
            key = (key << 32) | int(address)
        for name, width in (("src_port", 16), ("dst_port", 16),
                            ("protocol", 8)):
            value, _ = _exact_bits(int(packet.field(name, 0)), width)
            key = (key << width) | value
        return key

    def check(self, packet: Packet) -> Action:
        """First-match decision for a parsed packet."""
        result = self.tcam.search(self._key_for(packet))
        if result.best_index is None:
            return self.default_action
        return self._actions[result.best_index]

    def check_batch(self, keys: np.ndarray, charges=None) -> np.ndarray:
        """Winning rule per packed key; ``-1`` where the default applies.

        ``keys`` is a (batch, 2) uint64 array of 104-bit keys packed as
        :func:`repro.tcam.tcam.pack_bits` lays them out: word 0 is
        ``src << 32 | dst``, word 1 is ``sport << 24 | dport << 8 |
        proto``.  One vectorised TCAM pass; per-key match semantics
        and charged energy are identical to calling :meth:`check` in
        a loop.  ``charges`` names the ledgers that pay for the keys,
        as :meth:`~repro.tcam.tcam.TCAM.search_words` takes them
        (default: the table's own).  :meth:`action_codes` turns the
        result into verdicts.
        """
        return self.tcam.search_words(keys, charges).best_indices

    def action_codes(self, entries: np.ndarray) -> np.ndarray:
        """Each entry's action as an index into ``tuple(Action)``.

        ``entries`` holds :meth:`check_batch` results; ``-1`` reads the
        default action.
        """
        table = [_ACTION_CODES[action] for action in self._actions]
        table.append(_ACTION_CODES[self.default_action])
        return np.array(table, dtype=np.intp)[entries]

    def permits(self, packet: Packet) -> bool:
        """True when the ACL verdict for the packet is PERMIT."""
        return self.check(packet) is Action.PERMIT
