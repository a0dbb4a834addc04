"""Ingress/egress packet buffers of the switch model (Figure 5).

Synchronous FIFO buffers used by the packet-processing pipeline (the
event-driven queue with service dynamics lives in
:mod:`repro.simnet.queue_sim`).  A buffer holds *column segments*:
each admitted group of rows keeps its sizes, its enqueue time, the
batch it came from and, for rows that entered as
:class:`~repro.packet.Packet` objects, those objects — so
:meth:`PacketQueue.pop` hands back the very object that was pushed,
while column-native rows are materialised only if someone pops them
one at a time.  Limits are enforced in both packets and bytes;
overflow drops are counted.  Occupancy is two O(1) counters.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

import numpy as np

from repro.packet import Packet

__all__ = ["PacketQueue"]


class _Segment:
    """Rows admitted together: sizes, enqueue time, source and head."""

    __slots__ = ("sizes", "enqueued_at", "batch", "rows", "objects",
                 "head")

    def __init__(self, sizes: np.ndarray, enqueued_at: float, batch,
                 rows, objects: list | None) -> None:
        self.sizes = sizes
        self.enqueued_at = enqueued_at
        self.batch = batch
        self.rows = rows
        self.objects = objects
        self.head = 0

    def packet(self, offset: int) -> Packet:
        """The row's object, or the row materialised from its batch."""
        if self.objects is not None:
            return self.objects[offset]
        packet = self.batch.packet(int(self.rows[offset]))
        packet.enqueued_at = self.enqueued_at
        return packet


class PacketQueue:
    """A bounded FIFO with packet- and byte-level occupancy tracking."""

    def __init__(self, name: str, capacity_packets: int = 1024,
                 capacity_bytes: int | None = None) -> None:
        if capacity_packets < 1:
            raise ValueError(
                f"capacity must be >= 1 packet: {capacity_packets!r}")
        if capacity_bytes is not None and capacity_bytes < 1:
            raise ValueError(
                f"byte capacity must be >= 1: {capacity_bytes!r}")
        self.name = name
        self.capacity_packets = capacity_packets
        self.capacity_bytes = capacity_bytes
        self._segments: deque[_Segment] = deque()
        self._len = 0
        self._bytes = 0
        self.enqueued = 0
        self.dropped = 0

    def __len__(self) -> int:
        return self._len

    @property
    def backlog_bytes(self) -> int:
        """Bytes currently buffered."""
        return self._bytes

    @property
    def is_empty(self) -> bool:
        """True when no packet is buffered."""
        return self._len == 0

    @property
    def is_full(self) -> bool:
        """True when a further push would overflow a limit."""
        if self._len >= self.capacity_packets:
            return True
        return (self.capacity_bytes is not None
                and self._bytes >= self.capacity_bytes)

    def _append(self, segment: _Segment, n: int) -> None:
        self._segments.append(segment)
        self._len += n
        self._bytes += segment.sizes.sum().item()
        self.enqueued += n

    def push(self, packet: Packet, now: float = 0.0) -> bool:
        """Enqueue; returns False (and counts a drop) on overflow."""
        if self.is_full:
            packet.dropped = True
            self.dropped += 1
            return False
        packet.enqueued_at = now
        self._append(_Segment(np.array([packet.size_bytes]), now, None,
                              None, [packet]), 1)
        return True

    def push_rows(self, batch, rows: np.ndarray, now: float = 0.0
                  ) -> int:
        """Enqueue rows of a batch in order; returns how many fit.

        Admission is exactly the per-row :meth:`push` loop: a refused
        row leaves the state unchanged, so every later row is refused
        too and the admitted rows are a prefix.  Refused rows count as
        drops (and their packet objects, if any, are marked).
        """
        sizes = batch.sizes[rows]
        n = len(sizes)
        fit = min(n, max(self.capacity_packets - self._len, 0))
        if self.capacity_bytes is not None and fit:
            before = self._bytes + np.concatenate(
                ([0], np.cumsum(sizes[:fit - 1])))
            fit = int(np.count_nonzero(before < self.capacity_bytes))
        objects = batch.packets
        if fit < n:
            self.dropped += n - fit
            if objects is not None:
                for row in rows[fit:].tolist():
                    objects[row].dropped = True
        if fit:
            kept = rows[:fit]
            owned = None
            if objects is not None:
                owned = [objects[row] for row in kept.tolist()]
                for packet in owned:
                    packet.enqueued_at = now
            self._append(_Segment(sizes[:fit], now, batch, kept, owned),
                         fit)
        return fit

    def pop(self, now: float = 0.0) -> Packet | None:
        """Dequeue the head packet, or None when empty."""
        if not self._len:
            return None
        segment = self._segments[0]
        packet = segment.packet(segment.head)
        self._advance(segment, 1)
        packet.dequeued_at = now
        return packet

    def peek(self) -> Packet | None:
        """The head packet without removing it."""
        if not self._len:
            return None
        segment = self._segments[0]
        return segment.packet(segment.head)

    def segment_sizes(self) -> Iterator[np.ndarray]:
        """Queued sizes in service order, one array per segment."""
        for segment in self._segments:
            yield segment.sizes[segment.head:]

    def serve(self, count: int, now: float = 0.0) -> np.ndarray:
        """Dequeue ``count`` head rows at once; their sojourns [s].

        Equivalent to ``count`` :meth:`pop` calls: packet objects get
        ``dequeued_at`` stamped, column rows just leave.
        """
        sojourns = []
        while count:
            segment = self._segments[0]
            take = min(count, len(segment.sizes) - segment.head)
            if segment.objects is not None:
                for packet in segment.objects[
                        segment.head:segment.head + take]:
                    packet.dequeued_at = now
            sojourns.append(np.full(take, now - segment.enqueued_at))
            self._advance(segment, take)
            count -= take
        return np.concatenate(sojourns) if sojourns \
            else np.zeros(0)

    def _advance(self, segment: _Segment, n: int) -> None:
        start = segment.head
        segment.head = start + n
        self._len -= n
        self._bytes -= segment.sizes[start:start + n].sum().item()
        if segment.head == len(segment.sizes):
            self._segments.popleft()

    def __repr__(self) -> str:
        return (f"PacketQueue({self.name!r}, {self._len}/"
                f"{self.capacity_packets} pkts, {self._bytes} B)")
