"""The cognitive traffic manager: egress ports with AQM (Figure 5/6).

:class:`CognitiveTrafficManager` is the "Cognitive Traffic Manager"
block of Figure 6, where the pCAM-based AQM lives: ``n_ports`` port
queues (:class:`~repro.dataplane.queues.PortQueue`), each with
strict-priority class queues and an AQM policy judging every egress
enqueue (plain tail drop when no AQM factory is given).

Both sides are columnar: :meth:`~CognitiveTrafficManager.
enqueue_batch` admits a :class:`~repro.dataplane.fastpath.PacketBatch`
port group as column segments, and :meth:`~CognitiveTrafficManager.
serve` drains a port at line rate in one call per port per slice.
The scalar ``enqueue``/``dequeue`` pair stays as the edge API.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.packet import Packet
from repro.dataplane.fastpath import PacketBatch, first_appearance_counts
from repro.dataplane.queues import PacketQueue, PortQueue
from repro.dataplane.telemetry import TelemetryCollector
from repro.netfunc.aqm.base import AQMAlgorithm, QueueView, TailDropAQM
from repro.observability.tracing import Tracer, maybe_span

__all__ = ["ADMISSIONS", "Admission", "CognitiveTrafficManager",
           "serve_each", "spend_credit"]


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


class CognitiveTrafficManager:
    """Per-port egress queues with an AQM policy at every port.

    Each port is a :class:`~repro.dataplane.queues.PortQueue`: one
    queue per priority class, served in strict priority, and its own
    AQM instance from ``aqm_factory`` (tail drop when omitted).  Every
    per-port call goes through one range-checked port lookup.

    With a ``telemetry`` collector attached, per-port admission
    outcomes are recorded as events and any degradation-capable AQM
    (one exposing a ``telemetry`` attribute, e.g.
    :class:`repro.robustness.degradation.DegradingAQM`) that has no
    collector of its own is wired to the shared one, so per-table
    fallback events surface alongside the admission counters.
    """

    def __init__(self, n_ports: int, aqm_factory=None,
                 n_priorities: int = 2, queue_capacity: int = 1024,
                 port_rate_bps: float = 10e9,
                 telemetry: TelemetryCollector | None = None,
                 tracer: Tracer | None = None) -> None:
        if n_ports < 1:
            raise ValueError(f"need at least one port: {n_ports!r}")
        make_aqm = aqm_factory or TailDropAQM
        self._ports = [PortQueue(f"port{port}", make_aqm(), n_priorities,
                                 queue_capacity, port_rate_bps)
                       for port in range(n_ports)]
        self.n_ports = n_ports
        self.n_priorities = n_priorities
        self.port_rate_bps = port_rate_bps
        self.stats = [queue.stats for queue in self._ports]
        self.telemetry = telemetry
        #: Optional span tracer covering AQM consults and queue admits.
        self.tracer = tracer
        if telemetry is not None:
            for queue in self._ports:
                if hasattr(queue.aqm, "telemetry") \
                        and queue.aqm.telemetry is None:
                    queue.aqm.telemetry = telemetry

    def _port(self, port: int) -> PortQueue:
        if not 0 <= port < self.n_ports:
            raise IndexError(f"port {port} out of range")
        return self._ports[port]

    @property
    def degraded_ports(self) -> tuple[int, ...]:
        """Ports whose AQM is currently serving from a fallback path."""
        return tuple(port for port, queue in enumerate(self._ports)
                     if getattr(queue.aqm, "degraded", False))

    def aqm(self, port: int) -> AQMAlgorithm:
        """The AQM instance managing one port."""
        return self._port(port).aqm

    def queue_view(self, port: int) -> QueueView:
        """The queue-state view an AQM (or a sensor) consults."""
        return self._port(port)

    def queue(self, port: int, priority: int) -> PacketQueue:
        """The underlying buffer of one (port, priority) pair."""
        classes = self._port(port).classes
        if not 0 <= priority < len(classes):
            raise IndexError(f"priority {priority} out of range")
        return classes[priority]

    def backlog(self, port: int) -> int:
        """Pending packets on a port across all classes."""
        return self._port(port).backlog_packets

    def last_sojourn_s(self, port: int) -> float:
        """Sojourn time of the port's most recently served packet [s]."""
        return self._port(port).last_sojourn_s

    def enqueue(self, port: int, packet: Packet, now: float = 0.0) -> bool:
        """Admit a packet after consulting the port's AQM."""
        return bool(self.enqueue_batch(port, [packet], now)[0] == _QUEUED)

    def enqueue_batch(self, port: int, packets, now: float = 0.0
                      ) -> np.ndarray:
        """Admit a batch after one batched AQM consultation.

        ``packets`` is a :class:`PacketBatch` or a ``Packet`` sequence.
        The port's AQM judges the whole batch against the batch-start
        queue state via its vectorised ``on_enqueue_batch`` hook (for
        the pCAM AQM, a single analog-pipeline search for the entire
        batch); survivors are then queued per class as column
        segments, with capacity enforced exactly as a per-packet push
        loop would.  A batch of one is the scalar path.  Returns the
        per-row :data:`ADMISSIONS` codes.
        """
        queue = self._port(port)
        batch = PacketBatch.of(packets)
        codes = np.zeros(len(batch), dtype=np.uint8)
        if not len(batch):
            return codes
        with maybe_span(self.tracer, "tm.enqueue", port=port,
                        n=len(batch)):
            with maybe_span(self.tracer, "tm.aqm", port=port):
                drops = queue.judge(batch, now)
            with maybe_span(self.tracer, "tm.queue", port=port):
                dropped = np.flatnonzero(drops)
                if len(dropped):
                    codes[dropped] = _AQM_DROP
                    batch.mark_dropped(dropped)
                    queue.stats.aqm_drops += len(dropped)
                overflow = queue.push_rows(batch, np.flatnonzero(~drops),
                                           now)
                codes[overflow] = _OVERFLOW_DROP
        if self.telemetry is not None:
            for code, count in first_appearance_counts(codes):
                self.telemetry.record_event(
                    f"port{port}.{ADMISSIONS[code].value}", count)
        return codes

    def dequeue(self, port: int, now: float = 0.0) -> Packet | None:
        """Serve the next packet, honouring AQM head drops."""
        with maybe_span(self.tracer, "tm.dequeue", port=port):
            return self._port(port).pop(now)[0]

    # ------------------------------------------------------------------
    # Line-rate service
    # ------------------------------------------------------------------
    def replays_dequeues(self, port: int) -> bool:
        """Whether the port's AQM lets a drain serve by credit alone."""
        return self._port(port).replays_dequeues

    def queued_sizes(self, port: int, limit: float | None = None
                     ) -> np.ndarray:
        """A port's queued sizes in service order (see
        :meth:`~repro.dataplane.queues.PortQueue.queued_sizes`)."""
        return self._port(port).queued_sizes(limit)

    def serve_count(self, port: int, count: int, now: float = 0.0
                    ) -> None:
        """Dequeue a port's next ``count`` rows (see
        :meth:`~repro.dataplane.queues.PortQueue.serve_count`)."""
        self._port(port).serve_count(count, now)

    def serve(self, port: int, credit: float, now: float = 0.0) -> float:
        """Serve a port with ``credit`` bytes of line time; credit left.

        Bit-identical to the per-packet reference loop
        (:func:`serve_each` over :meth:`dequeue`), one call per port
        per slice: the served count comes from :func:`spend_credit`
        over the queued head sizes.  When the port's AQM may drop at
        the head (CoDel, a degraded table) the reference loop itself
        runs, since a head drop consumes no credit.
        """
        with maybe_span(self.tracer, "tm.serve", port=port):
            queue = self._port(port)
            if not credit > 0.0:
                return credit
            if not queue.replays_dequeues:
                return serve_each(lambda: self.dequeue(port, now), credit)
            served, left = spend_credit(credit, queue.queued_sizes(credit))
            if served:
                queue.serve_count(served, now)
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
