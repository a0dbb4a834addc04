"""Packet verdicts, per-packet results, and derived drop accounting.

The verdict vocabulary and the telemetry drop-counter names used to
live apart (the enum in ``pipeline.py``, the event strings repeated
inline in both the scalar and batched paths).  They are unified here:
:data:`DROP_EVENTS` is *derived* from the :class:`Verdict` enum, so a
new drop reason automatically gets a telemetry counter and can never
drift between paths — there is only one path now anyway.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.packet import Packet

__all__ = ["BatchResults", "DROP_EVENTS", "ProcessResult", "VERDICTS",
           "VERDICT_CODES", "Verdict", "drop_event"]


class Verdict(enum.Enum):
    """Fate of a processed packet."""

    QUEUED = "queued"
    DROPPED_PARSE = "dropped_parse"
    DROPPED_ACL = "dropped_acl"
    DROPPED_NO_ROUTE = "dropped_no_route"
    DROPPED_AQM = "dropped_aqm"
    DROPPED_OVERFLOW = "dropped_overflow"

    @property
    def dropped(self) -> bool:
        """True for every verdict except delivery to a queue."""
        return self is not Verdict.QUEUED


def drop_event(verdict: Verdict) -> str | None:
    """Telemetry event name counting one drop verdict (None for QUEUED).

    Derived, not hand-written: ``DROPPED_NO_ROUTE`` -> ``no_route_drop``
    and so on, reproducing the historical counter names exactly while
    guaranteeing every future drop verdict gets a counter.
    """
    if not verdict.dropped:
        return None
    return verdict.value.removeprefix("dropped_") + "_drop"


#: Event-counter name per dropping verdict (every member but QUEUED).
DROP_EVENTS: dict[Verdict, str] = {
    verdict: drop_event(verdict)
    for verdict in Verdict if verdict.dropped
}


@dataclass(frozen=True)
class ProcessResult:
    """Outcome of one packet's trip through the pipeline."""

    verdict: Verdict
    port: int | None = None
    packet: Packet | None = None

    @property
    def delivered(self) -> bool:
        """True when the packet reached an egress queue."""
        return self.verdict is Verdict.QUEUED


#: Stable verdict order: a verdict's wire code is its index here.
VERDICTS: tuple[Verdict, ...] = tuple(Verdict)
#: Verdict -> its uint8 wire code.
VERDICT_CODES: dict[Verdict, int] = {v: i for i, v in enumerate(VERDICTS)}


class BatchResults(Sequence):
    """Per-row outcomes of one batch: verdict codes and egress ports.

    ``codes`` are uint8 indices into :data:`VERDICTS`; ``ports`` are
    int16 with ``-1`` for "no egress port".  ``packets`` holds the
    input :class:`~repro.packet.Packet` objects when the batch entered
    as packets (None for column-native rows).  Indexing or iterating
    yields :class:`ProcessResult` values built on demand, so callers
    of the scalar edge keep working unchanged.
    """

    __slots__ = ("codes", "ports", "packets")

    def __init__(self, codes: np.ndarray, ports: np.ndarray,
                 packets: "list[Packet | None] | None" = None) -> None:
        self.codes = codes
        self.ports = ports
        self.packets = packets

    @classmethod
    def empty(cls, n: int, packets=None) -> "BatchResults":
        """Results for ``n`` rows, every code and port still unset
        (``packets``, when given, is copied)."""
        return cls(np.zeros(n, dtype=np.uint8),
                   np.full(n, -1, dtype=np.int16),
                   None if packets is None else list(packets))

    def __len__(self) -> int:
        return len(self.codes)

    def _result(self, code: int, port: int, packet) -> ProcessResult:
        return ProcessResult(verdict=VERDICTS[code],
                             port=None if port < 0 else port,
                             packet=packet)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        packet = None if self.packets is None else self.packets[index]
        return self._result(int(self.codes[index]),
                            int(self.ports[index]), packet)

    def __iter__(self):
        packets = self.packets if self.packets is not None \
            else [None] * len(self)
        for code, port, packet in zip(self.codes.tolist(),
                                      self.ports.tolist(), packets):
            yield self._result(code, port, packet)

    def __add__(self, other) -> list[ProcessResult]:
        """Concatenate like a list (``results += more`` on the edge)."""
        return list(self) + list(other)

    @property
    def verdict_values(self) -> list[str]:
        """The verdicts' string values, in row order."""
        values = [verdict.value for verdict in VERDICTS]
        return [values[code] for code in self.codes.tolist()]

    @property
    def port_values(self) -> "list[int | None]":
        """Egress ports in row order (None for no port)."""
        return [None if port < 0 else port
                for port in self.ports.tolist()]
