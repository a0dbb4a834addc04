"""Traffic managers: scheduling and the cognitive AQM hook (Figure 5/6).

The plain :class:`TrafficManager` schedules egress queues with strict
priority; the :class:`CognitiveTrafficManager` additionally runs an
AQM policy at every egress enqueue — the "Cognitive Traffic Manager"
block of Figure 6, where the pCAM-based AQM lives.

Both sides are columnar: :meth:`~TrafficManager.enqueue_batch` admits
a :class:`~repro.dataplane.fastpath.PacketBatch` port group as column
segments, and :meth:`~TrafficManager.serve` drains a port at line
rate in one call per port per slice.  The scalar
``enqueue``/``dequeue`` pair stays as the edge API.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.packet import Packet
from repro.dataplane.fastpath import PacketBatch, first_appearance_counts
from repro.dataplane.queues import PacketQueue
from repro.dataplane.telemetry import TelemetryCollector
from repro.netfunc.aqm.base import AQMAlgorithm, QueueView
from repro.observability.tracing import Tracer, maybe_span

__all__ = ["ADMISSIONS", "Admission", "CognitiveTrafficManager",
           "PortStats", "TrafficManager", "serve_each", "spend_credit"]


class Admission(enum.Enum):
    """Per-packet outcome of a (batched) enqueue attempt."""

    QUEUED = "queued"
    AQM_DROP = "aqm_drop"
    OVERFLOW_DROP = "overflow_drop"

    @property
    def admitted(self) -> bool:
        """True when the packet made it into a queue."""
        return self is Admission.QUEUED


#: Admission outcomes by code (the uint8 values enqueue_batch returns).
ADMISSIONS: tuple[Admission, ...] = tuple(Admission)
_QUEUED, _AQM_DROP, _OVERFLOW_DROP = range(3)


@dataclass
class PortStats:
    """Counters per egress port."""

    enqueued: int = 0
    dequeued: int = 0
    aqm_drops: int = 0
    overflow_drops: int = 0


class TrafficManager:
    """Per-port egress queues with strict-priority scheduling.

    Each port owns one queue per priority class; :meth:`dequeue`
    always serves the lowest-numbered non-empty class.
    """

    def __init__(self, n_ports: int, n_priorities: int = 2,
                 queue_capacity: int = 1024) -> None:
        if n_ports < 1:
            raise ValueError(f"need at least one port: {n_ports!r}")
        if n_priorities < 1:
            raise ValueError(
                f"need at least one priority class: {n_priorities!r}")
        self.n_ports = n_ports
        self.n_priorities = n_priorities
        self._queues = [
            [PacketQueue(name=f"port{port}.prio{prio}",
                         capacity_packets=queue_capacity)
             for prio in range(n_priorities)]
            for port in range(n_ports)]
        self.stats = [PortStats() for _ in range(n_ports)]

    def _classify(self, packet: Packet) -> int:
        return min(packet.priority, self.n_priorities - 1)

    def queue(self, port: int, priority: int) -> PacketQueue:
        """The underlying buffer of one (port, priority) pair."""
        if not 0 <= port < self.n_ports:
            raise IndexError(f"port {port} out of range")
        if not 0 <= priority < self.n_priorities:
            raise IndexError(f"priority {priority} out of range")
        return self._queues[port][priority]

    def _check_port(self, port: int) -> None:
        if not 0 <= port < self.n_ports:
            raise IndexError(f"port {port} out of range")

    def enqueue(self, port: int, packet: Packet, now: float = 0.0) -> bool:
        """Admit a packet to its port/class queue."""
        self._check_port(port)
        queue = self._queues[port][self._classify(packet)]
        admitted = queue.push(packet, now)
        if admitted:
            self.stats[port].enqueued += 1
        else:
            self.stats[port].overflow_drops += 1
        return admitted

    def _push_rows(self, port: int, batch: PacketBatch, rows: np.ndarray,
                   now: float) -> np.ndarray:
        """Queue rows per class (in order); the rows that overflowed."""
        classes = np.minimum(batch.priorities[rows],
                             self.n_priorities - 1)
        overflow = []
        admitted = 0
        present = set(classes.tolist())
        for prio in sorted(present):
            members = rows if len(present) == 1 else rows[classes == prio]
            fit = self._queues[port][prio].push_rows(batch, members, now)
            admitted += fit
            overflow.append(members[fit:])
        self.stats[port].enqueued += admitted
        dropped = np.concatenate(overflow) if overflow \
            else rows[:0]
        self.stats[port].overflow_drops += len(dropped)
        return dropped

    def enqueue_batch(self, port: int, packets, now: float = 0.0
                      ) -> np.ndarray:
        """Admit a batch; per-row :data:`ADMISSIONS` codes in order.

        ``packets`` is a :class:`PacketBatch` or a ``Packet`` sequence.
        """
        self._check_port(port)
        batch = PacketBatch.of(packets)
        codes = np.zeros(len(batch), dtype=np.uint8)
        overflow = self._push_rows(port, batch,
                                   np.arange(len(batch)), now)
        codes[overflow] = _OVERFLOW_DROP
        return codes

    def dequeue(self, port: int, now: float = 0.0) -> Packet | None:
        """Serve the highest-priority pending packet of a port."""
        self._check_port(port)
        for queue in self._queues[port]:
            packet = queue.pop(now)
            if packet is not None:
                self.stats[port].dequeued += 1
                return packet
        return None

    def backlog(self, port: int) -> int:
        """Pending packets on a port across all classes."""
        return sum(len(queue) for queue in self._queues[port])

    # ------------------------------------------------------------------
    # Line-rate service
    # ------------------------------------------------------------------
    def replays_dequeues(self, port: int) -> bool:
        """Whether a drain may pick served rows by credit alone."""
        return True

    def queued_sizes(self, port: int, limit: float | None = None
                     ) -> np.ndarray:
        """Queued sizes in service order (strict priority, FIFO).

        With ``limit`` only a head covering it is returned: whole
        segments up to the first whose running total reaches
        ``limit``, plus one more segment, so a byte-credit walk over
        the head can never run past it.
        """
        parts = []
        total = 0
        reached = False
        for queue in self._queues[port]:
            for sizes in queue.segment_sizes():
                parts.append(sizes)
                if reached:
                    return np.concatenate(parts)
                total += sizes.sum().item()
                reached = limit is not None and total >= limit
        return np.concatenate(parts) if parts else np.zeros(0)

    def serve_count(self, port: int, count: int, now: float = 0.0
                    ) -> None:
        """Dequeue the next ``count`` rows of a port in service order.

        Only valid while :meth:`replays_dequeues` holds (no head drops
        can interleave); the served sojourns are replayed to the AQM
        in order afterwards.
        """
        parts = []
        for queue in self._queues[port]:
            if not count:
                break
            take = min(count, len(queue))
            if take:
                parts.append(queue.serve(take, now))
                count -= take
        if parts:
            sojourns = np.concatenate(parts)
            self.stats[port].dequeued += len(sojourns)
            self._replay(port, sojourns, now)

    def _replay(self, port: int, sojourns: np.ndarray,
                now: float) -> None:
        """Feed served sojourns to the port's AQM (none here)."""

    def serve(self, port: int, credit: float, now: float = 0.0) -> float:
        """Serve a port with ``credit`` bytes of line time; credit left.

        Bit-identical to the per-packet reference loop
        (:func:`serve_each` over :meth:`dequeue`), one call per port
        per slice: the served count comes from :func:`spend_credit`
        over the queued head sizes.  When the port's AQM may drop at
        the head (CoDel, a degraded table) the reference loop itself
        runs, since a head drop consumes no credit.
        """
        self._check_port(port)
        if not credit > 0.0:
            return credit
        if not self.replays_dequeues(port):
            return serve_each(lambda: self.dequeue(port, now), credit)
        sizes = self.queued_sizes(port, credit)
        served, left = spend_credit(credit, sizes)
        if served:
            self.serve_count(port, served, now)
        return left


def serve_each(dequeue, credit: float) -> float:
    """The per-packet line-rate loop: dequeue while credit is positive.

    An idle port forfeits its remaining credit (returns 0.0); a busy
    one carries its overdraft (<= 0) into the next slice.
    """
    while credit > 0.0:
        packet = dequeue()
        if packet is None:
            return 0.0
        credit -= packet.size_bytes
    return credit


def spend_credit(credit: float, sizes: np.ndarray) -> tuple[int, float]:
    """``(served, credit left)`` for :func:`serve_each` over ``sizes``.

    Packet k is served while ``credit - sizes[:k]`` is still positive,
    with the same sequential float subtraction
    (``np.subtract.accumulate``), so the carried credit matches the
    loop bit for bit.  ``sizes`` must cover the credit or be the whole
    queue: serving all of it with credit to spare means the port went
    idle, which forfeits the rest.
    """
    run = np.subtract.accumulate(
        np.concatenate(([credit], sizes)).astype(float))
    served = int(np.count_nonzero(run[:-1] > 0.0))
    left = float(run[served])
    return served, 0.0 if served == len(sizes) and left > 0.0 else left


class _PortQueueView:
    """Adapts a port's queue set to the AQM QueueView protocol."""

    def __init__(self, manager: "CognitiveTrafficManager",
                 port: int) -> None:
        self._manager = manager
        self._port = port

    @property
    def backlog_packets(self) -> int:
        """Pending packets across the port's classes."""
        return self._manager.backlog(self._port)

    @property
    def backlog_bytes(self) -> int:
        """Pending bytes across the port's classes."""
        return sum(queue.backlog_bytes
                   for queue in self._manager._queues[self._port])

    @property
    def capacity_packets(self) -> int:
        """Aggregate packet capacity of the port's queues."""
        return sum(queue.capacity_packets
                   for queue in self._manager._queues[self._port])

    @property
    def service_rate_bps(self) -> float:
        """The port's drain rate [bits/s]."""
        return self._manager.port_rate_bps

    @property
    def last_sojourn_s(self) -> float:
        """Sojourn time of the port's most recently served packet [s]."""
        return self._manager.last_sojourn_s(self._port)


class CognitiveTrafficManager(TrafficManager):
    """A traffic manager with an AQM policy at every egress port.

    With a ``telemetry`` collector attached, per-port admission
    outcomes are recorded as events and any degradation-capable AQM
    (one exposing a ``telemetry`` attribute, e.g.
    :class:`repro.robustness.degradation.DegradingAQM`) that has no
    collector of its own is wired to the shared one, so per-table
    fallback events surface alongside the admission counters.
    """

    def __init__(self, n_ports: int, aqm_factory, n_priorities: int = 2,
                 queue_capacity: int = 1024,
                 port_rate_bps: float = 10e9,
                 telemetry: TelemetryCollector | None = None,
                 tracer: Tracer | None = None) -> None:
        super().__init__(n_ports, n_priorities, queue_capacity)
        if port_rate_bps <= 0:
            raise ValueError(
                f"port rate must be positive: {port_rate_bps!r}")
        self.port_rate_bps = port_rate_bps
        self.telemetry = telemetry
        #: Optional span tracer covering AQM consults and queue admits.
        self.tracer = tracer
        self._aqms: list[AQMAlgorithm] = [aqm_factory()
                                          for _ in range(n_ports)]
        if telemetry is not None:
            for aqm in self._aqms:
                if hasattr(aqm, "telemetry") and aqm.telemetry is None:
                    aqm.telemetry = telemetry
        self._views = [_PortQueueView(self, port)
                       for port in range(n_ports)]
        self._last_sojourns = [0.0] * n_ports

    @property
    def degraded_ports(self) -> tuple[int, ...]:
        """Ports whose AQM is currently serving from a fallback path."""
        return tuple(port for port, aqm in enumerate(self._aqms)
                     if getattr(aqm, "degraded", False))

    def aqm(self, port: int) -> AQMAlgorithm:
        """The AQM instance managing one port."""
        if not 0 <= port < self.n_ports:
            raise IndexError(f"port {port} out of range")
        return self._aqms[port]

    def queue_view(self, port: int) -> QueueView:
        """The queue-state view an AQM (or a sensor) consults."""
        if not 0 <= port < self.n_ports:
            raise IndexError(f"port {port} out of range")
        return self._views[port]

    def last_sojourn_s(self, port: int) -> float:
        """Sojourn time of the port's most recently served packet [s]."""
        return self._last_sojourns[port]

    def enqueue(self, port: int, packet: Packet, now: float = 0.0) -> bool:
        """Admit a packet after consulting the port's AQM."""
        return bool(self.enqueue_batch(port, [packet], now)[0] == _QUEUED)

    def enqueue_batch(self, port: int, packets, now: float = 0.0
                      ) -> np.ndarray:
        """Admit a batch after one batched AQM consultation.

        The port's AQM judges the whole batch against the batch-start
        queue state via its vectorised ``on_enqueue_batch`` hook (for
        the pCAM AQM, a single analog-pipeline search for the entire
        batch); survivors are then queued per class as column
        segments, with capacity enforced exactly as a per-packet push
        loop would.  A batch of one is the scalar path.  Returns the
        per-row :data:`ADMISSIONS` codes.
        """
        self._check_port(port)
        batch = PacketBatch.of(packets)
        codes = np.zeros(len(batch), dtype=np.uint8)
        if not len(batch):
            return codes
        with maybe_span(self.tracer, "tm.enqueue", port=port,
                        n=len(batch)):
            with maybe_span(self.tracer, "tm.aqm", port=port):
                drops = np.asarray(self._aqms[port].on_enqueue_batch(
                    batch, self._views[port], now), dtype=bool)
            with maybe_span(self.tracer, "tm.queue", port=port):
                dropped = np.flatnonzero(drops)
                if len(dropped):
                    codes[dropped] = _AQM_DROP
                    batch.mark_dropped(dropped)
                    self.stats[port].aqm_drops += len(dropped)
                overflow = self._push_rows(port, batch,
                                           np.flatnonzero(~drops), now)
                codes[overflow] = _OVERFLOW_DROP
        if self.telemetry is not None:
            for code, count in first_appearance_counts(codes):
                self.telemetry.record_event(
                    f"port{port}.{ADMISSIONS[code].value}", count)
        return codes

    def dequeue(self, port: int, now: float = 0.0) -> Packet | None:
        """Serve the next packet, honouring AQM head drops."""
        with maybe_span(self.tracer, "tm.dequeue", port=port):
            return self._dequeue(port, now)

    def _dequeue(self, port: int, now: float) -> Packet | None:
        while True:
            packet = super().dequeue(port, now)
            if packet is None:
                return None
            sojourn = (now - packet.enqueued_at
                       if packet.enqueued_at is not None else 0.0)
            self._last_sojourns[port] = sojourn
            if self._aqms[port].on_dequeue(packet, self._views[port],
                                           now, sojourn):
                packet.dropped = True
                self.stats[port].aqm_drops += 1
                self.stats[port].dequeued -= 1
                continue
            return packet

    def replays_dequeues(self, port: int) -> bool:
        """Whether the port's AQM lets a drain serve by credit alone."""
        return self._aqms[port].replays_dequeues

    def serve(self, port: int, credit: float, now: float = 0.0) -> float:
        with maybe_span(self.tracer, "tm.serve", port=port):
            return super().serve(port, credit, now)

    serve.__doc__ = TrafficManager.serve.__doc__

    def _replay(self, port: int, sojourns: np.ndarray,
                now: float) -> None:
        self._last_sojourns[port] = float(sojourns[-1])
        self._aqms[port].on_dequeue_batch(sojourns, self._views[port],
                                          now)
