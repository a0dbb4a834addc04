"""Responsive (AIMD / TCP-like) traffic sources with ECN support.

The Figure 8 experiment uses open-loop Poisson flows, but the AQM
algorithms the paper compares against (RED, CoDel, PIE) were designed
for *responsive* senders that slow down when packets drop or get
ECN-marked.  This module provides that workload:

* :class:`AIMDFlowGenerator` — a self-clocked window-based sender:
  additive increase (one packet per window per RTT), multiplicative
  decrease on loss or on a delivered CE-marked packet, with at most
  one reaction per RTT (like TCP's congestion-event handling).
* ECN plumbing: packets carry ``ect`` (ECN-capable transport) and an
  AQM may set ``ce`` (congestion experienced) instead of dropping —
  see :meth:`repro.netfunc.aqm.pcam_aqm.PCAMAQM` with
  ``ecn_enabled=True``.

The generator learns about deliveries and drops through the
``delivery_listener`` / ``drop_listener`` hooks of
:class:`~repro.simnet.queue_sim.BottleneckQueue` (the event-time
driver of a :class:`~repro.dataplane.queues.PortQueue`): deliveries
at service completion, drops at the door, on overflow and at the
head.  A :class:`FeedbackRouter` fans those signals out per flow.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.packet import Packet
from repro.simnet.engine import Simulator

__all__ = ["AIMDFlowGenerator", "FeedbackRouter"]


class FeedbackRouter:
    """Dispatches queue delivery/drop events to per-flow handlers.

    Wire it into the queue::

        router = FeedbackRouter()
        queue = BottleneckQueue(sim, ...,
                                delivery_listener=router.on_delivery,
                                drop_listener=router.on_drop)
    """

    def __init__(self) -> None:
        self._delivery: dict[int, Callable[[Packet], None]] = {}
        self._drop: dict[int, Callable[[Packet], None]] = {}

    def register(self, flow_id: int,
                 on_delivery: Callable[[Packet], None],
                 on_drop: Callable[[Packet], None]) -> None:
        """Bind a flow's delivery/drop handlers by flow id."""
        if flow_id in self._delivery:
            raise ValueError(f"flow {flow_id} already registered")
        self._delivery[flow_id] = on_delivery
        self._drop[flow_id] = on_drop

    def on_delivery(self, packet: Packet) -> None:
        """Queue hook: route a delivered packet to its flow."""
        handler = self._delivery.get(packet.flow_id)
        if handler is not None:
            handler(packet)

    def on_drop(self, packet: Packet) -> None:
        """Queue hook: route a dropped packet to its flow."""
        handler = self._drop.get(packet.flow_id)
        if handler is not None:
            handler(packet)


class AIMDFlowGenerator:
    """A window-based congestion-controlled sender.

    Sends at rate ``cwnd / rtt`` (self-clocked pacing).  Each
    delivered, unmarked packet grows the window by ``1 / cwnd``
    (additive increase of one packet per RTT); a drop or a delivered
    CE mark halves it (multiplicative decrease), reacting at most once
    per RTT.

    Parameters
    ----------
    rtt_s:
        Base round-trip time (the feedback delay of the control loop).
    flow_id, packet_size_bytes, priority:
        Stamped onto every packet.
    initial_window, min_window, max_window:
        Window bounds in packets.
    ecn_capable:
        Mark packets ECT so an ECN-enabled AQM marks instead of drops.
    """

    def __init__(self, router: FeedbackRouter, rtt_s: float = 0.04,
                 flow_id: int = 0, packet_size_bytes: int = 1000,
                 priority: int = 0, initial_window: float = 2.0,
                 min_window: float = 1.0, max_window: float = 1e4,
                 ecn_capable: bool = False,
                 rng: np.random.Generator | None = None) -> None:
        if rtt_s <= 0:
            raise ValueError(f"rtt must be positive: {rtt_s!r}")
        if not 1.0 <= min_window <= initial_window <= max_window:
            raise ValueError("need 1 <= min <= initial <= max window")
        self.rtt_s = rtt_s
        self.flow_id = flow_id
        self.packet_size_bytes = packet_size_bytes
        self.priority = priority
        self.min_window = min_window
        self.max_window = max_window
        self.ecn_capable = ecn_capable
        self._rng = rng or np.random.default_rng()
        self.cwnd = float(initial_window)
        self.generated = 0
        self.losses = 0
        self.marks_seen = 0
        self._last_backoff = -float("inf")
        self._sim: Simulator | None = None
        router.register(flow_id, self._on_delivery, self._on_drop)

    # ------------------------------------------------------------------
    # Congestion control
    # ------------------------------------------------------------------
    def _backoff(self, now: float) -> None:
        """Multiplicative decrease, at most once per RTT."""
        if now - self._last_backoff < self.rtt_s:
            return
        self._last_backoff = now
        self.cwnd = max(self.min_window, self.cwnd / 2.0)

    def _on_delivery(self, packet: Packet) -> None:
        assert self._sim is not None
        if packet.field("ce", False):
            self.marks_seen += 1
            self._backoff(self._sim.now)
            return
        # Additive increase: one packet per window per RTT.
        self.cwnd = min(self.max_window, self.cwnd + 1.0 / self.cwnd)

    def _on_drop(self, packet: Packet) -> None:
        assert self._sim is not None
        self.losses += 1
        self._backoff(self._sim.now)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    @property
    def send_rate_pps(self) -> float:
        """Current self-clocked pacing rate."""
        return self.cwnd / self.rtt_s

    def attach(self, sim: Simulator, sink) -> None:
        """Start the self-clocked sender on the simulator."""
        self._sim = sim

        def emit() -> None:
            packet = Packet(size_bytes=self.packet_size_bytes,
                            flow_id=self.flow_id,
                            priority=self.priority,
                            created_at=sim.now)
            if self.ecn_capable:
                packet.fields["ect"] = True
            self.generated += 1
            sink(packet)
            # Slight jitter desynchronises competing flows.
            interval = 1.0 / self.send_rate_pps
            jitter = float(self._rng.uniform(0.9, 1.1))
            sim.schedule(interval * jitter, emit)

        sim.schedule(float(self._rng.uniform(0.0, self.rtt_s)), emit)
