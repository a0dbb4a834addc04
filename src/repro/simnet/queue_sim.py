"""The bottleneck queue under study (Figure 8's simulated queue).

The event-time driver of one AQM-managed port: a single-class
:class:`~repro.dataplane.queues.PortQueue` (the queue model the
switch's traffic manager is built from) served at a fixed line rate
inside the event simulator, with the AQM hooked at both the enqueue
and dequeue sides, a hard capacity (tail drop as the last resort),
and full metrics instrumentation.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

from repro.dataplane.queues import PortQueue
from repro.netfunc.aqm.base import AQMAlgorithm, TailDropAQM
from repro.packet import Packet
from repro.simnet.engine import Simulator
from repro.simnet.metrics import DelayRecorder

__all__ = ["BottleneckQueue"]


class BottleneckQueue(PortQueue):
    """A capacity-limited FIFO with pluggable AQM, in event time.

    The packet in service has left the queue, so the
    :class:`~repro.netfunc.aqm.base.QueueView` backlog excludes it,
    and ``last_sojourn_s`` is set when service *completes* (it
    includes the service time).

    Parameters
    ----------
    sim:
        The event loop driving arrivals and departures.
    service_rate_bps:
        Drain rate of the output line [bits/s].
    capacity_packets:
        Hard buffer limit; arrivals beyond it are tail-dropped even if
        the AQM admitted them.
    aqm:
        The management policy; defaults to plain tail drop.
    recorder:
        Metrics sink; a fresh one is created when omitted.
    sample_interval_s:
        Period of the queue-occupancy sampler (0 disables sampling).
    """

    def __init__(self, sim: Simulator, service_rate_bps: float,
                 capacity_packets: int = 1000,
                 aqm: AQMAlgorithm | None = None,
                 recorder: DelayRecorder | None = None,
                 sample_interval_s: float = 0.0,
                 delivery_listener=None,
                 drop_listener=None) -> None:
        super().__init__("bottleneck", aqm or TailDropAQM(),
                         capacity_packets=capacity_packets,
                         service_rate_bps=service_rate_bps)
        self.sim = sim
        self.recorder = recorder or DelayRecorder()
        self._busy = False
        #: Optional hooks for responsive sources (AIMD congestion
        #: control): called with the packet on service completion and
        #: on every drop, respectively.
        self.delivery_listener = delivery_listener
        self.drop_listener = drop_listener
        if sample_interval_s > 0.0:
            sim.every(sample_interval_s, self._sample)

    @property
    def admitted(self) -> int:
        """Packets admitted to the buffer."""
        return self.stats.enqueued

    @property
    def aqm_drops(self) -> int:
        """Packets the AQM dropped, at the door or at the head."""
        return self.stats.aqm_drops

    @property
    def overflow_drops(self) -> int:
        """Packets the full buffer refused."""
        return self.stats.overflow_drops

    def departed(self, sojourn_s: float) -> None:
        """Leaving the head starts service; :meth:`_complete` records
        the sojourn once service ends."""

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet) -> None:
        """Arrival entry point (wired as the generators' sink)."""
        self.enqueue_batch([packet])

    def enqueue_batch(self, packets: Sequence[Packet]) -> int:
        """Admit a chunk of simultaneous arrivals; returns how many.

        The AQM judges the whole chunk once, against the chunk-start
        queue state (a chunk of one is exactly :meth:`enqueue`);
        capacity is still enforced per packet as survivors are queued.
        """
        now = self.sim.now
        admitted = 0
        for packet, drop in zip(packets, self.judge(packets, now).tolist()):
            if drop:
                self.stats.aqm_drops += 1
            elif self.push(packet, now):
                admitted += 1
                continue
            self._drop(packet)
        if admitted and not self._busy:
            self._serve_next()
        return admitted

    def _serve_next(self) -> None:
        packet, dropped = self.pop(self.sim.now)
        for victim in dropped:
            self._drop(victim)
        self._busy = packet is not None
        if packet is not None:
            service_time = packet.size_bytes * 8.0 / self.service_rate_bps
            self.sim.schedule(service_time, partial(self._complete, packet))

    def _complete(self, packet: Packet) -> None:
        now = self.sim.now
        packet.dequeued_at = now
        sojourn = now - packet.enqueued_at
        self._last_sojourn_s = sojourn
        self.recorder.record_departure(now, sojourn, packet.priority)
        if self.delivery_listener is not None:
            self.delivery_listener(packet)
        self._serve_next()

    def _drop(self, packet: Packet) -> None:
        packet.dropped = True
        self.recorder.record_drop(self.sim.now, packet.priority)
        if self.drop_listener is not None:
            self.drop_listener(packet)

    def _sample(self) -> None:
        self.recorder.record_queue_sample(
            self.sim.now, self.backlog_packets, self.backlog_bytes)
