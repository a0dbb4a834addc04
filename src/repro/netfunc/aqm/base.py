"""AQM algorithm interface and the trivial tail-drop baseline.

Every AQM in this package — the digital baselines (RED, CoDel, PIE)
and the paper's pCAM-based analog AQM — implements the same two hooks:

* :meth:`AQMAlgorithm.on_enqueue` — called before a packet is admitted;
  returning True drops it at the door (RED, PIE, pCAM-AQM style).
* :meth:`AQMAlgorithm.on_dequeue` — called when a packet reaches the
  head of line; returning True discards it instead of serving it
  (CoDel style).

Both have batch forms.  ``on_enqueue_batch`` judges a whole batch of
arrivals (a packet sequence, or a columnar batch exposing at least a
``priorities`` column and iterating as packets).  A line-rate drain
that knows no head drop can happen — :attr:`replays_dequeues` —
serves by byte credit alone and then replays the served sojourns, in
order, through ``on_dequeue_batch`` as ``(sojourn, packets)`` runs.

The queue exposes itself to the algorithm through the narrow
:class:`QueueView` protocol so AQMs cannot reach into scheduling
internals.
"""

from __future__ import annotations

import abc
from typing import Protocol, Sequence

import numpy as np

from repro.packet import Packet

__all__ = ["AQMAlgorithm", "QueueView", "TailDropAQM"]


class QueueView(Protocol):
    """What an AQM algorithm may observe about its queue."""

    @property
    def backlog_packets(self) -> int:
        """Packets currently queued."""
        ...

    @property
    def backlog_bytes(self) -> int:
        """Bytes currently queued."""
        ...

    @property
    def capacity_packets(self) -> int:
        """Hard buffer limit in packets."""
        ...

    @property
    def service_rate_bps(self) -> float:
        """Drain rate of the output line [bits/s]."""
        ...

    @property
    def last_sojourn_s(self) -> float:
        """Sojourn time of the most recently served packet [s]."""
        ...


class AQMAlgorithm(abc.ABC):
    """Base class for active queue management policies."""

    #: Human-readable algorithm name (used in benchmark tables).
    name: str = "aqm"

    def on_enqueue(self, packet: Packet, queue: QueueView,
                   now: float) -> bool:
        """Return True to drop the arriving packet."""
        return False

    def on_enqueue_batch(self, packets: Sequence[Packet],
                         queue: QueueView, now: float) -> np.ndarray:
        """Per-packet drop verdicts for a chunk of arrivals.

        The default consults :meth:`on_enqueue` packet by packet (and
        skips the walk when that hook is the never-dropping default);
        batch-capable algorithms (the pCAM AQM) override this with a
        vectorised evaluation.
        """
        if type(self).on_enqueue is AQMAlgorithm.on_enqueue:
            return np.zeros(len(packets), dtype=bool)
        return np.array([self.on_enqueue(packet, queue, now)
                         for packet in packets], dtype=bool)

    def serving(self, now: float) -> "AQMAlgorithm":
        """The AQM judging this table's arrivals at ``now``: itself,
        unless a wrapper serves them from another path (see
        :class:`repro.robustness.degradation.DegradingAQM`)."""
        return self

    def on_dequeue(self, packet: Packet, queue: QueueView,
                   now: float, sojourn_s: float) -> bool:
        """Return True to discard the head packet instead of serving it."""
        return False

    @property
    def replays_dequeues(self) -> bool:
        """True when :meth:`on_dequeue` never drops and reads only the
        sojourn, so a drain may serve by credit first and replay the
        sojourns afterwards (:meth:`on_dequeue_batch`).

        Holds by default only for algorithms that keep the inert base
        :meth:`on_dequeue`; an override must opt in explicitly.
        """
        return type(self).on_dequeue is AQMAlgorithm.on_dequeue

    def on_dequeue_batch(self, runs: Sequence[tuple[float, int]],
                         queue: QueueView, now: float) -> None:
        """Replay the sojourns of packets a drain served, in order.

        ``runs`` are ``(sojourn [s], packets)`` pairs: that many served
        packets in a row, all with that sojourn.  Only called while
        :attr:`replays_dequeues` holds; the base :meth:`on_dequeue` has
        nothing to learn from them.
        """

    def reset(self) -> None:
        """Clear any controller state between runs."""


class TailDropAQM(AQMAlgorithm):
    """No active management: drop only on buffer overflow.

    The queue itself enforces the capacity limit; this policy never
    drops proactively, making it the "without AQM" curve of Figure 8.
    """

    name = "tail-drop"
