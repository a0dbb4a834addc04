"""Multi-bottleneck paths: chained queues with propagation delay.

The paper's bufferbloat citation (Ye et al., "Combating Bufferbloat
in Multi-Bottleneck Networks" [60]) concerns exactly this topology:
congestion can form at *several* hops, and per-hop AQM must keep the
end-to-end delay bounded.  This module chains
:class:`~repro.simnet.queue_sim.BottleneckQueue` instances through
propagation-delay links and records end-to-end statistics.

Two path flavours live here:

* :func:`build_path` / :class:`MultiBottleneckExperiment` — abstract
  bottleneck queues inside the event simulator (AQM research rig);
* :func:`run_switch_path` — a chain of *full cognitive switches*
  (``build_switch`` products or whole
  :class:`~repro.fabric.fabric.SwitchFabric` instances), admission
  slices riding hop to hop through line-rate drains and link delays,
  so a topology of sharded switches is one scenario call.  Each drain
  is the traffic manager's own per-packet line-rate loop
  (:func:`~repro.dataplane.traffic_manager.serve_each`) over a
  dequeue-and-forward step.

Both flavours queue on the same port model,
:class:`~repro.dataplane.queues.PortQueue`: event time drives it
through ``BottleneckQueue``, slice time through the switches' traffic
managers.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.dataplane.traffic_manager import serve_each
from repro.netfunc.aqm.base import AQMAlgorithm, TailDropAQM
from repro.packet import Packet
from repro.simnet.engine import Simulator
from repro.simnet.flows import PoissonFlowGenerator
from repro.simnet.metrics import DelayRecorder
from repro.simnet.queue_sim import BottleneckQueue

__all__ = ["MultiBottleneckExperiment", "PathResult", "SwitchHopStats",
           "SwitchPathResult", "build_path", "run_switch_path"]


@dataclass(frozen=True)
class PathResult:
    """End-to-end outcome of one multi-hop run."""

    end_to_end_delays_s: np.ndarray
    delivered: int
    dropped: int
    per_hop_recorders: tuple[DelayRecorder, ...]
    queues: tuple[BottleneckQueue, ...]

    @property
    def mean_delay_s(self) -> float:
        """Mean end-to-end delay [s]."""
        if self.end_to_end_delays_s.size == 0:
            return 0.0
        return float(self.end_to_end_delays_s.mean())

    @property
    def p95_delay_s(self) -> float:
        """95th-percentile end-to-end delay [s]."""
        if self.end_to_end_delays_s.size == 0:
            return 0.0
        return float(np.percentile(self.end_to_end_delays_s, 95))


def build_path(sim: Simulator,
               hop_rates_bps: Sequence[float],
               propagation_delays_s: Sequence[float],
               aqm_factory: Callable[[], AQMAlgorithm],
               capacity_packets: int = 2000,
               on_delivery: Callable[[Packet], None] | None = None
               ) -> list[BottleneckQueue]:
    """Chain bottleneck queues into a path.

    ``propagation_delays_s`` has one entry per hop: the latency of the
    link *after* that hop (the last entry is the final link to the
    receiver).  The returned list's first queue is the path entry
    point.
    """
    if len(hop_rates_bps) != len(propagation_delays_s):
        raise ValueError("need one propagation delay per hop")
    if not hop_rates_bps:
        raise ValueError("path needs at least one hop")
    queues: list[BottleneckQueue] = []
    for rate in hop_rates_bps:
        queues.append(BottleneckQueue(sim, service_rate_bps=rate,
                                      capacity_packets=capacity_packets,
                                      aqm=aqm_factory()))

    def make_forwarder(next_queue: BottleneckQueue,
                       delay: float) -> Callable[[Packet], None]:
        def forward(packet: Packet) -> None:
            sim.schedule(delay, lambda p=packet: next_queue.enqueue(p))
        return forward

    for index in range(len(queues) - 1):
        queues[index].delivery_listener = make_forwarder(
            queues[index + 1], float(propagation_delays_s[index]))

    if on_delivery is not None:
        final_delay = float(propagation_delays_s[-1])

        def deliver(packet: Packet) -> None:
            sim.schedule(final_delay, lambda p=packet: on_delivery(p))

        queues[-1].delivery_listener = deliver
    return queues


@dataclass
class MultiBottleneckExperiment:
    """Poisson sources through a two-bottleneck path.

    The second hop is the tighter one by default, so congestion forms
    downstream — the regime where end-to-end delay control needs AQM
    at *both* hops.
    """

    n_flows: int = 6
    load: float = 1.2
    hop_rates_bps: tuple[float, ...] = (60e6, 40e6)
    propagation_delays_s: tuple[float, ...] = (0.002, 0.002)
    packet_size_bytes: int = 1000
    capacity_packets: int = 2000
    duration_s: float = 6.0
    seed: int = 21

    def __post_init__(self) -> None:
        if self.n_flows < 1:
            raise ValueError(f"need at least one flow: {self.n_flows!r}")
        if len(self.hop_rates_bps) != len(self.propagation_delays_s):
            raise ValueError("need one propagation delay per hop")

    @property
    def bottleneck_rate_bps(self) -> float:
        """The tightest hop's rate [bits/s]."""
        return min(self.hop_rates_bps)

    def run(self, aqm_factory: Callable[[], AQMAlgorithm] | None = None
            ) -> PathResult:
        """Execute one run with the given per-hop AQM factory."""
        sim = Simulator()
        end_to_end: list[float] = []

        def on_delivery(packet: Packet) -> None:
            end_to_end.append(sim.now - packet.created_at)

        queues = build_path(
            sim, self.hop_rates_bps, self.propagation_delays_s,
            aqm_factory or TailDropAQM,
            capacity_packets=self.capacity_packets,
            on_delivery=on_delivery)

        total_pps = (self.load * self.bottleneck_rate_bps
                     / (8.0 * self.packet_size_bytes))
        rng = np.random.default_rng(self.seed)
        for index in range(self.n_flows):
            PoissonFlowGenerator(
                rate_pps=total_pps / self.n_flows,
                packet_size_bytes=self.packet_size_bytes,
                flow_id=index,
                rng=np.random.default_rng(rng.integers(2 ** 63))
            ).attach(sim, queues[0].enqueue)
        sim.run_until(self.duration_s)

        dropped = sum(queue.aqm_drops + queue.overflow_drops
                      for queue in queues)
        return PathResult(
            end_to_end_delays_s=np.asarray(end_to_end),
            delivered=len(end_to_end),
            dropped=dropped,
            per_hop_recorders=tuple(queue.recorder for queue in queues),
            queues=tuple(queues))


# ----------------------------------------------------------------------
# Cognitive-switch paths (single switches or whole fabrics per hop)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SwitchHopStats:
    """What one hop of a switch path did to the traffic."""

    admitted: int
    verdict_counts: dict[str, int]
    energy_total_j: float


@dataclass(frozen=True)
class SwitchPathResult:
    """End-to-end outcome of one cognitive-switch path run."""

    delivered: int
    end_to_end_delays_s: np.ndarray
    hops: tuple[SwitchHopStats, ...]

    @property
    def mean_delay_s(self) -> float:
        """Mean end-to-end delay [s]."""
        if self.end_to_end_delays_s.size == 0:
            return 0.0
        return float(self.end_to_end_delays_s.mean())

    @property
    def p95_delay_s(self) -> float:
        """95th-percentile end-to-end delay [s]."""
        if self.end_to_end_delays_s.size == 0:
            return 0.0
        return float(np.percentile(self.end_to_end_delays_s, 95))

    @property
    def energy_total_j(self) -> float:
        """Total energy across every hop (all shards of all hops) [J]."""
        return sum(hop.energy_total_j for hop in self.hops)


def _manager_of(processor):
    """A processor's egress surface: itself, or its traffic manager.

    A :class:`~repro.fabric.fabric.SwitchFabric` serves ``n_ports`` /
    ``dequeue`` directly; a single ``build_switch`` product exposes
    them through its traffic manager.  Duck-typing here is what lets
    one path mix single switches and whole fabrics hop by hop.
    """
    return getattr(processor, "traffic_manager", processor)


def run_switch_path(processors: Sequence, stream, *,
                    link_delays_s: Sequence[float],
                    port_rate_bps: float = 200e6,
                    admission_chunk: int = 256,
                    drain_step_s: float = 0.01,
                    max_drain_steps: int = 10_000) -> SwitchPathResult:
    """Drive a traffic stream through a chain of cognitive switches.

    ``processors`` are duck-typed hops — single switches or whole
    fabrics.  ``stream`` yields
    :class:`~repro.simnet.workloads.ChunkColumns` (a scenario stream)
    or plain packet sequences.  ``link_delays_s`` has one entry per
    hop: the propagation latency of the link *after* that hop (the
    last entry leads to the receiver).

    Time advances at admission-slice granularity exactly like
    :func:`~repro.simnet.scenarios.run_scenario`: before each slice,
    every hop's egress drains at line rate up to the slice time and
    the drained packets ride their links to the next hop's ingress;
    then each hop admits whatever has arrived.  After the stream
    ends, drains continue in ``drain_step_s`` steps until the path is
    empty.
    """
    if len(processors) != len(link_delays_s):
        raise ValueError("need one link delay per hop")
    if not processors:
        raise ValueError("path needs at least one hop")
    if admission_chunk < 1:
        raise ValueError(
            f"admission chunk must be >= 1: {admission_chunk!r}")

    n_hops = len(processors)
    delays = [float(d) for d in link_delays_s]
    # Per-hop ingress: (ready_time, seq, packet) min-heaps; the seq
    # breaks ties so heapq never compares packets.
    ingress: list[list] = [[] for _ in range(n_hops)]
    seq = itertools.count()
    admitted = [0] * n_hops
    verdicts: list[Counter] = [Counter() for _ in range(n_hops)]
    credits = [[0.0] * _manager_of(p).n_ports for p in processors]
    delivered: list[float] = []

    def drain_hop(hop: int, t_from: float, t_until: float) -> None:
        if t_until <= t_from:
            return
        manager = _manager_of(processors[hop])
        budget = (t_until - t_from) * port_rate_bps / 8.0
        ready = t_until + delays[hop]

        def forward(port: int) -> Packet | None:
            packet = manager.dequeue(port, now=t_until)
            if packet is None:
                return None
            if hop + 1 < n_hops:
                heapq.heappush(ingress[hop + 1], (ready, next(seq), packet))
            else:
                delivered.append(ready - packet.created_at)
            return packet

        for port in range(manager.n_ports):
            credits[hop][port] = serve_each(
                lambda: forward(port), credits[hop][port] + budget)

    def admit_hop(hop: int, t_now: float) -> None:
        batch = []
        heap = ingress[hop]
        while heap and heap[0][0] <= t_now:
            batch.append(heapq.heappop(heap)[2])
        if not batch:
            return
        results = processors[hop].process_batch(
            batch, now=t_now, chunk_size=len(batch))
        admitted[hop] += len(batch)
        verdicts[hop].update(results.verdict_values)

    def step(t_from: float, t_until: float) -> None:
        for hop in range(n_hops):
            drain_hop(hop, t_from, t_until)
        for hop in range(1, n_hops):
            admit_hop(hop, t_until)

    t_prev = 0.0
    t_last = 0.0
    for chunk in stream:
        packets = chunk.to_packets() if hasattr(chunk, "to_packets") \
            else list(chunk)
        for start in range(0, len(packets), admission_chunk):
            piece = packets[start:start + admission_chunk]
            t_now = max(t_prev, float(piece[0].created_at))
            step(t_prev, t_now)
            results = processors[0].process_batch(
                piece, now=t_now, chunk_size=len(piece))
            admitted[0] += len(piece)
            verdicts[0].update(results.verdict_values)
            t_prev = t_now
            t_last = max(t_last, float(piece[-1].created_at))

    # Tail: keep draining until the whole path is empty.
    t_now = max(t_prev, t_last)
    for _ in range(max_drain_steps):
        before = len(delivered)
        t_next = t_now + drain_step_s
        step(t_now, t_next)
        t_now = t_next
        if len(delivered) == before and not any(ingress):
            break

    return SwitchPathResult(
        delivered=len(delivered),
        end_to_end_delays_s=np.asarray(delivered),
        hops=tuple(SwitchHopStats(
            admitted=admitted[hop],
            verdict_counts=dict(verdicts[hop]),
            energy_total_j=float(processors[hop].energy_total_j()))
            for hop in range(n_hops)))
