"""Longest-prefix-match IP lookup on the digital TCAM.

One of the high-precision functions that stays in the digital domain
(RQ2): routes are stored as ternary prefixes (prefix bits cared-for,
host bits wildcarded) with priority = prefix length, so the TCAM's
highest-priority match *is* the longest prefix.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass

import numpy as np

from repro.energy.ledger import EnergyLedger
from repro.tcam.tcam import TCAM, TernaryPattern

__all__ = ["IPLookup", "Route"]


@dataclass(frozen=True)
class Route:
    """A routing entry: prefix -> next hop."""

    prefix: str
    next_hop: str

    def __post_init__(self) -> None:
        ipaddress.ip_network(self.prefix, strict=False)  # validates


class IPLookup:
    """An LPM forwarding table over a 32-bit TCAM.

    Parameters
    ----------
    tcam:
        Optionally inject a TCAM variant (e.g.
        :class:`repro.tcam.MemristorTCAM`) to compare energy; defaults
        to a transistor TCAM.
    """

    WIDTH = 32

    def __init__(self, tcam: TCAM | None = None,
                 ledger: EnergyLedger | None = None) -> None:
        self.ledger = ledger if ledger is not None else EnergyLedger()
        self.tcam = tcam if tcam is not None else TCAM(
            self.WIDTH, ledger=self.ledger)
        self._next_hops: list[str] = []
        self._routes: list[Route] = []

    def __len__(self) -> int:
        return len(self._routes)

    @property
    def generation(self) -> int:
        """Version of the forwarding table; bumps on every mutation.

        The data-plane flow cache keys on this so route updates
        invalidate cached next hops.
        """
        return self.tcam.generation

    def add_route(self, prefix: str, next_hop: str) -> None:
        """Install ``prefix`` (e.g. ``"10.1.0.0/16"``) -> ``next_hop``."""
        route = Route(prefix=prefix, next_hop=next_hop)
        network = ipaddress.ip_network(prefix, strict=False)
        if network.version != 4:
            raise ValueError(f"only IPv4 prefixes supported: {prefix!r}")
        length = network.prefixlen
        value = int(network.network_address)
        mask = ((1 << length) - 1) << (self.WIDTH - length) \
            if length else 0
        pattern = TernaryPattern.from_value(value, self.WIDTH, mask=mask)
        # Longer prefixes must win: priority = 32 - prefix length.
        self.tcam.add(pattern, priority=self.WIDTH - length)
        self._next_hops.append(next_hop)
        self._routes.append(route)

    def lookup(self, address: str | int) -> str | None:
        """Next hop for an IPv4 ``address``, or None if no route matches.

        Raises :class:`ValueError` for anything but an IPv4 address.
        """
        value = int(ipaddress.IPv4Address(address))
        result = self.tcam.search(value)
        if result.best_index is None:
            return None
        return self._next_hops[result.best_index]

    def lookup_batch(self, addresses: np.ndarray, charges=None
                     ) -> np.ndarray:
        """Winning route per uint32 destination; ``-1`` where none does.

        Each address is its own one-word packed key.  One vectorised
        longest-prefix-match pass; per-address results and charged
        energy are identical to looping :meth:`lookup`, and
        :attr:`routes` names each winner's next hop.  ``charges`` names
        the ledgers that pay for the addresses, as
        :meth:`~repro.tcam.tcam.TCAM.search_words` takes them (default:
        the table's own).
        """
        keys = np.asarray(addresses, dtype=np.uint64).reshape(-1, 1)
        return self.tcam.search_words(keys, charges).best_indices

    @property
    def routes(self) -> tuple[Route, ...]:
        """All installed routes, in insertion order."""
        return tuple(self._routes)
