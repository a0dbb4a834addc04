"""Port queues of the switch model (Figure 5) and of the simulator.

A :class:`PacketQueue` is one bounded FIFO.  It holds *column
segments*: each admitted group of rows keeps its sizes, its enqueue
time, the batch it came from and, for rows that entered as
:class:`~repro.packet.Packet` objects, those objects — so
:meth:`PacketQueue.pop` hands back the very object that was pushed,
while column-native rows are materialised only if someone pops them
one at a time.  The limit is a packet count; overflow drops are
counted.  Occupancy is two O(1) counters.

A :class:`PortQueue`, one AQM-managed port, is the only queue model:
the switch's traffic manager is ``n_ports`` of them and
:class:`~repro.simnet.queue_sim.BottleneckQueue` drives one in event
time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterator

import numpy as np

from repro.netfunc.aqm.base import AQMAlgorithm
from repro.packet import Packet

__all__ = ["PacketQueue", "PortQueue", "PortStats"]


class _Segment:
    """Rows admitted together: sizes, enqueue time, source, head and
    the bytes the rows from ``head`` on still hold."""

    __slots__ = ("sizes", "enqueued_at", "batch", "rows", "objects",
                 "head", "bytes")

    def __init__(self, sizes: np.ndarray, enqueued_at: float, batch,
                 rows, objects: list | None, nbytes: int) -> None:
        self.sizes = sizes
        self.enqueued_at = enqueued_at
        self.batch = batch
        self.rows = rows
        self.objects = objects
        self.head = 0
        self.bytes = nbytes

    def packet(self, offset: int) -> Packet:
        """The row's object, or the row materialised from its batch."""
        if self.objects is not None:
            return self.objects[offset]
        packet = self.batch.packet(int(self.rows[offset]))
        packet.enqueued_at = self.enqueued_at
        return packet


class PacketQueue:
    """A FIFO bounded in packets, tracking its packets and bytes."""

    def __init__(self, name: str, capacity_packets: int = 1024) -> None:
        if capacity_packets < 1:
            raise ValueError(
                f"capacity must be >= 1 packet: {capacity_packets!r}")
        self.name = name
        self.capacity_packets = capacity_packets
        self._segments: deque[_Segment | Packet] = deque()
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

    def push(self, packet: Packet, now: float = 0.0) -> bool:
        """Enqueue; returns False (and counts a drop) on overflow.

        A pushed packet is its own one-row segment: the one-packet path
        builds no array and no segment object.
        """
        if self._len >= self.capacity_packets:
            packet.dropped = True
            self.dropped += 1
            return False
        packet.enqueued_at = now
        self._segments.append(packet)
        self._len += 1
        self._bytes += packet.size_bytes
        self.enqueued += 1
        return True

    def push_rows(self, batch, rows: np.ndarray, now: float = 0.0
                  ) -> int:
        """Enqueue the rows that fit as one segment; how many fit.

        Exactly the per-row :meth:`push` loop: the admitted rows are a
        prefix, the rest count as drops (the caller marks any objects).
        """
        fit = min(len(rows), self.capacity_packets - self._len)
        self.dropped += len(rows) - fit
        if fit:
            rows = rows[:fit]
            sizes = batch.sizes[rows]
            owned = None
            if batch.packets is not None:
                owned = [batch.packets[row] for row in rows.tolist()]
                for packet in owned:
                    packet.enqueued_at = now
            nbytes = int(np.add.reduce(sizes))
            self._segments.append(_Segment(sizes, now, batch, rows, owned,
                                           nbytes))
            self._len += fit
            self._bytes += nbytes
            self.enqueued += fit
        return fit

    def pop(self, now: float = 0.0) -> Packet | None:
        """Dequeue the head packet, or None when empty."""
        if not self._len:
            return None
        segment = self._segments[0]
        if isinstance(segment, Packet):
            packet = self._segments.popleft()
            self._len -= 1
            self._bytes -= packet.size_bytes
        else:
            packet = segment.packet(segment.head)
            self._advance(segment, 1)
        packet.dequeued_at = now
        return packet

    def peek(self) -> Packet | None:
        """The head packet without removing it."""
        if not self._len:
            return None
        segment = self._segments[0]
        if isinstance(segment, Packet):
            return segment
        return segment.packet(segment.head)

    def segments(self) -> Iterator[tuple[np.ndarray, int]]:
        """Queued segments in service order: each one's sizes and the
        bytes they hold."""
        for segment in self._segments:
            if isinstance(segment, Packet):
                yield np.array([segment.size_bytes]), segment.size_bytes
            else:
                yield segment.sizes[segment.head:], segment.bytes

    def serve(self, count: int, now: float = 0.0
              ) -> list[tuple[float, int]]:
        """Dequeue ``count`` head rows at once; their sojourn runs.

        Equivalent to ``count`` :meth:`pop` calls: packet objects get
        ``dequeued_at`` stamped, column rows just leave.  Returns one
        ``(sojourn [s], rows)`` run per segment served, in order: a
        segment's rows share one enqueue time.
        """
        runs = []
        while count:
            segment = self._segments[0]
            if isinstance(segment, Packet):
                runs.append((float(now - segment.enqueued_at), 1))
                self.pop(now)
                count -= 1
                continue
            take = min(count, len(segment.sizes) - segment.head)
            if segment.objects is not None:
                for packet in segment.objects[
                        segment.head:segment.head + take]:
                    packet.dequeued_at = now
            runs.append((float(now - segment.enqueued_at), take))
            self._advance(segment, take)
            count -= take
        return runs

    def _advance(self, segment: _Segment, n: int) -> None:
        start = segment.head
        segment.head = start + n
        self._len -= n
        if segment.head == len(segment.sizes):
            self._bytes -= segment.bytes
            self._segments.popleft()
            return
        spent = int(segment.sizes[start]) if n == 1 \
            else int(np.add.reduce(segment.sizes[start:start + n]))
        segment.bytes -= spent
        self._bytes -= spent

    def __repr__(self) -> str:
        return (f"PacketQueue({self.name!r}, {self._len}/"
                f"{self.capacity_packets} pkts, {self._bytes} B)")


#: A class queue's occupancy counters, read without a Python call.
_PACKETS = attrgetter("_len")
_BYTES = attrgetter("_bytes")


@dataclass
class PortStats:
    """Counters of one AQM-managed port."""

    enqueued: int = 0
    dequeued: int = 0
    aqm_drops: int = 0
    overflow_drops: int = 0


class PortQueue:
    """One AQM-managed port: the queue model of both time drivers.

    Holds one :class:`PacketQueue` per priority class (served in
    strict priority: the lowest-numbered non-empty class first), the
    AQM that judges every admission and may drop at the head, the
    port's :class:`PortStats` and the sojourn of the last packet to
    leave.  The port is itself the
    :class:`~repro.netfunc.aqm.base.QueueView` its AQM observes.

    Where ``last_sojourn_s`` is set belongs to the time driver: here
    (instantaneous service at slice time) every packet leaving the head
    sets it through :meth:`departed`, head-dropped ones included and
    before the AQM's ``on_dequeue`` sees it; an event-time driver
    overrides :meth:`departed` and sets it at service completion.
    """

    def __init__(self, name: str, aqm: AQMAlgorithm, n_classes: int = 1,
                 capacity_packets: int = 1024,
                 service_rate_bps: float = 10e9) -> None:
        if n_classes < 1:
            raise ValueError(
                f"need at least one priority class: {n_classes!r}")
        if service_rate_bps <= 0:
            raise ValueError(
                f"service rate must be positive: {service_rate_bps!r}")
        self.classes = [PacketQueue(f"{name}.prio{prio}",
                                    capacity_packets=capacity_packets)
                        for prio in range(n_classes)]
        self.aqm = aqm
        self.service_rate_bps = service_rate_bps
        self.stats = PortStats()
        self._last_sojourn_s = 0.0

    @property
    def backlog_packets(self) -> int:
        """Packets queued across the classes."""
        return sum(map(_PACKETS, self.classes))

    @property
    def backlog_bytes(self) -> int:
        """Bytes queued across the classes."""
        return sum(map(_BYTES, self.classes))

    @property
    def capacity_packets(self) -> int:
        """Aggregate packet capacity of the classes."""
        return sum(queue.capacity_packets for queue in self.classes)

    @property
    def last_sojourn_s(self) -> float:
        """Sojourn time of the most recently served packet [s]."""
        return self._last_sojourn_s

    def departed(self, sojourn_s: float) -> None:
        """Record the sojourn of a packet leaving the head."""
        self._last_sojourn_s = sojourn_s

    def judge(self, packets, now: float) -> np.ndarray:
        """The AQM's drop verdicts for an arrival group.

        ``packets`` is a packet sequence or a columnar batch; all of
        it is judged against the current queue state in one
        ``on_enqueue_batch`` call.  The caller counts the drops into
        ``stats.aqm_drops`` as it discards them.
        """
        return np.asarray(self.aqm.on_enqueue_batch(packets, self, now),
                          dtype=bool)

    def push(self, packet: Packet, now: float) -> bool:
        """Queue one packet in its class; False on overflow."""
        queue = self.classes[min(packet.priority, len(self.classes) - 1)]
        if queue.push(packet, now):
            self.stats.enqueued += 1
            return True
        self.stats.overflow_drops += 1
        return False

    def pop(self, now: float) -> tuple[Packet | None, list[Packet]]:
        """Serve the head in strict priority, honouring AQM head drops.

        Returns the served packet (None once the port is empty) and
        the packets the AQM dropped at the head before it, in order.
        """
        dropped: list[Packet] = []
        while True:
            for queue in self.classes:
                packet = queue.pop(now)
                if packet is not None:
                    break
            else:
                return None, dropped
            sojourn = now - packet.enqueued_at
            self.departed(sojourn)
            if not self.aqm.on_dequeue(packet, self, now, sojourn):
                self.stats.dequeued += 1
                return packet, dropped
            packet.dropped = True
            self.stats.aqm_drops += 1
            dropped.append(packet)

    @property
    def replays_dequeues(self) -> bool:
        """Whether a drain may pick served rows by credit alone."""
        return self.aqm.replays_dequeues

    def queued_sizes(self, limit: float) -> np.ndarray:
        """The queued head covering ``limit``, in service order (strict
        priority, FIFO).

        Whole segments up to the first whose running total reaches
        ``limit``, plus one more segment, so a byte-credit walk over
        the head can never run past it.
        """
        parts = []
        total = 0
        reached = False
        for queue in self.classes:
            if not reached and total + queue._bytes < limit:
                # All below the limit.
                parts.extend(sizes for sizes, _ in queue.segments())
                total += queue._bytes
                continue
            for sizes, nbytes in queue.segments():
                parts.append(sizes)
                if reached:
                    return np.concatenate(parts)
                total += nbytes
                reached = total >= limit
        return np.concatenate(parts) if parts else np.zeros(0)

    def serve_count(self, count: int, now: float) -> None:
        """Dequeue the next ``count`` rows in service order.

        Only valid while :attr:`replays_dequeues` holds (no head drop
        can interleave); the served sojourns are replayed to the AQM
        in order afterwards, as ``(sojourn, rows)`` runs.
        """
        runs = []
        served = 0
        for queue in self.classes:
            if served == count:
                break
            take = min(count - served, len(queue))
            if take:
                runs += queue.serve(take, now)
                served += take
        if runs:
            self.stats.dequeued += served
            self.departed(runs[-1][0])
            self.aqm.on_dequeue_batch(runs, self, now)
