"""The cognitive traffic manager: egress ports with AQM (Figure 5/6).

:class:`CognitiveTrafficManager` is the "Cognitive Traffic Manager"
block of Figure 6, where the pCAM-based AQM lives: ``n_ports`` port
queues (:class:`~repro.dataplane.queues.PortQueue`), each with
strict-priority class queues and an AQM policy judging every egress
enqueue (plain tail drop when no AQM factory is given).

Both sides are columnar: :meth:`~CognitiveTrafficManager.
enqueue_batch` admits a :class:`~repro.dataplane.fastpath.PacketBatch`
chunk as column segments in one call for all its ports, and
:meth:`~CognitiveTrafficManager.serve_ports` drains every port at line
rate in one call per slice.
The scalar ``enqueue``/``dequeue`` pair stays as the edge API.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.packet import Packet
from repro.core.pcam_pipeline import PipelineStack
from repro.dataplane.fastpath import PacketBatch, first_appearance_counts
from repro.dataplane.queues import PacketQueue, PortQueue
from repro.dataplane.telemetry import TelemetryCollector
from repro.netfunc.aqm.base import AQMAlgorithm, QueueView, TailDropAQM
from repro.netfunc.aqm.pcam_aqm import PCAMAQM
from repro.observability.tracing import Tracer, maybe_span

__all__ = ["ADMISSIONS", "Admission", "CognitiveTrafficManager", "PortGroups",
           "offer", "serve_each", "serve_offer", "spend_credits"]


class Admission(enum.Enum):
    """Per-packet outcome of a (batched) enqueue attempt."""

    QUEUED = "queued"
    AQM_DROP = "aqm_drop"
    OVERFLOW_DROP = "overflow_drop"


#: Admission outcomes by code (the uint8 values enqueue_batch returns).
ADMISSIONS: tuple[Admission, ...] = tuple(Admission)
_QUEUED, _AQM_DROP, _OVERFLOW_DROP = range(3)
#: Stacked pCAM banks a traffic manager keeps, one per ordered tuple
#: of judged pipelines; past this many the cache starts over.
_BANKS = 64


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
        self._banks: dict[tuple, PipelineStack] = {}
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

    def backlogs(self) -> list[int]:
        """Pending packets on every port, by port."""
        return [queue.backlog_packets for queue in self._ports]

    def last_sojourn_s(self, port: int) -> float:
        """Sojourn time of the port's most recently served packet [s]."""
        return self._port(port).last_sojourn_s

    def enqueue(self, port: int, packet: Packet, now: float = 0.0) -> bool:
        """Admit a packet after consulting the port's AQM."""
        return bool(self.enqueue_batch(port, [packet], now)[0] == _QUEUED)

    def port_groups(self, port, packets) -> "PortGroups":
        """The :class:`PortGroups` of a batch bound for these ports."""
        return PortGroups(port, PacketBatch.of(packets), self.n_ports,
                          self.n_priorities)

    def enqueue_batch(self, port, packets, now: float = 0.0
                      ) -> np.ndarray:
        """Admit a batch in one pass; the per-row :data:`ADMISSIONS`
        codes.

        ``packets`` is a :class:`PacketBatch` or a ``Packet`` sequence,
        ``port`` every row's port, an array of per-row ports or their
        :meth:`port_groups`.  Every port's AQM judges the port's rows
        in row order against the group-start state.  The live analog
        ones (a :class:`~repro.netfunc.aqm.pcam_aqm.PCAMAQM` serving
        the port, bare or inside a healthy degradation wrapper) whose
        queue is congested are judged together: in first-appearance
        order each reads its features, one stacked kernel call
        (:meth:`~repro.core.pcam_pipeline.PipelineStack.evaluate_uniform`)
        evaluates all their pipelines, and then, port by port, each
        books and draws (:meth:`~repro.netfunc.aqm.pcam_aqm.PCAMAQM.admit`)
        from the rows' priorities, with no sub-batch taken.  An idle
        pCAM port drops nothing; any other AQM judges the port's rows
        in one ``on_enqueue_batch`` call.  Then each class's
        survivors, a run of the ``(port, class)`` sort, join its queue
        as one segment cut to the free slots, exactly as a per-packet
        push loop would.  A batch of one is the scalar path.
        """
        groups = port if isinstance(port, PortGroups) \
            else self.port_groups(port, packets)
        if groups is port and port.batch is not packets:
            raise ValueError("port groups of another batch")
        batch, order, tracer = groups.batch, groups.order, self.tracer
        codes = np.zeros(len(batch), dtype=np.uint8)
        aqms = [self._ports[port].aqm.serving(now)
                for port, _, _ in groups.groups]
        evaluated = self._evaluate_analog(groups.groups, aqms, len(batch),
                                          now)
        for (port, rows, runs), aqm in zip(groups.groups, aqms):
            queue = self._ports[port]
            with maybe_span(tracer, "tm.enqueue", port=port,
                            n=len(batch) if rows is None else len(rows)):
                with maybe_span(tracer, "tm.aqm", port=port):
                    if type(aqm) is not PCAMAQM:
                        drops = np.asarray(aqm.on_enqueue_batch(
                            batch if rows is None else batch.take(rows),
                            queue, now), dtype=bool)
                    elif port in evaluated:
                        drops = aqm.admit(
                            *evaluated[port],
                            batch.priorities if rows is None
                            else batch.priorities[rows],
                            now, batch.packets, rows)
                    else:
                        drops = None
                with maybe_span(tracer, "tm.queue", port=port):
                    judged = 0 if drops is None \
                        else np.count_nonzero(drops)
                    if judged:
                        codes[drops.nonzero()[0] if rows is None
                              else rows[drops]] = _AQM_DROP
                        queue.stats.aqm_drops += judged
                    for prio, start, stop in runs:
                        members = order[start:stop]
                        if judged:
                            members = members[codes[members] == _QUEUED]
                        fit = queue.classes[prio].push_rows(batch, members,
                                                            now)
                        if fit < len(members):
                            codes[members[fit:]] = _OVERFLOW_DROP
                        queue.stats.enqueued += fit
                        queue.stats.overflow_drops += len(members) - fit
            if self.telemetry is not None:
                for code, count in first_appearance_counts(
                        codes if rows is None else codes[rows]):
                    self.telemetry.record_event(
                        f"port{port}.{ADMISSIONS[code].value}", count)
        if batch.packets is not None:
            batch.mark_dropped(codes.nonzero()[0])
        return codes

    def _evaluate_analog(self, groups: list, aqms: list, n: int,
                         now: float
                         ) -> dict[int, tuple[list[float], np.ndarray]]:
        """``{port: (voltages, raw PDPs)}`` of every port whose serving
        AQM is a ``PCAMAQM`` and whose queue is congested.

        In first-appearance order each reads its chunk-start features;
        then one stacked kernel call evaluates every such port's
        pipeline, one uniform feature column per port, counted once per
        row of the port.  The stacks are kept per ordered pipeline
        tuple (at most :data:`_BANKS` of them).
        """
        ports, pipelines, voltages, counts = [], [], [], []
        for (port, rows, _), aqm in zip(groups, aqms):
            queue = self._ports[port]
            if type(aqm) is PCAMAQM and aqm.congested(queue):
                ports.append(port)
                pipelines.append(aqm.pipeline)
                voltages.append(aqm.voltages(queue, now))
                counts.append(n if rows is None else len(rows))
        if not ports:
            return {}
        key = tuple(pipelines)
        bank = self._banks.get(key)
        if bank is None:
            if len(self._banks) >= _BANKS:
                self._banks.clear()
            bank = self._banks[key] = PipelineStack(key)
        pdps = bank.evaluate_uniform(voltages, counts)
        return dict(zip(ports, zip(voltages, pdps)))

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

    def serve(self, port: int, credit: float, now: float = 0.0) -> float:
        """Serve a port with ``credit`` bytes of line time; credit left.

        The one-port case of :meth:`serve_ports`.
        """
        return self._serve({port: credit}, now)[port]

    def serve_ports(self, credits: list[float], budget: float,
                    now: float = 0.0) -> list[float]:
        """Serve every port at line rate in one call; the credits left.

        Port ``p`` is offered ``credits[p] + budget`` bytes, served as
        :func:`serve_offer` describes (bit-identical to the per-packet
        loop, :func:`serve_each` over :meth:`dequeue`, port by port).
        """
        return list(self._serve(offer(credits, budget, self.n_ports),
                                now).values())

    def _serve(self, offered: dict[int, float], now: float
               ) -> dict[int, float]:
        with maybe_span(self.tracer, "tm.serve", ports=len(offered)):
            return serve_offer(offered, [self],
                               lambda port: self.dequeue(port, now),
                               [0] * self.n_ports, now)

    def occupancy(self, limits: dict[int, float]
                  ) -> dict[int, tuple[int, int, bool]]:
        """``{port: (packets, bytes, replays dequeues)}`` for every port
        offered a positive limit that holds packets."""
        held = {}
        for port, limit in limits.items():
            queue = self._port(port)
            packets = queue.backlog_packets
            if limit > 0.0 and packets:
                held[port] = (packets, queue.backlog_bytes,
                              queue.replays_dequeues)
        return held

    def heads(self, limits: dict[int, float]) -> dict[int, np.ndarray]:
        """``{port: head sizes covering its limit}`` for every port in
        ``limits`` that holds packets."""
        heads = {}
        for port, limit in limits.items():
            queue = self._port(port)
            if queue.backlog_packets:
                heads[port] = queue.queued_sizes(limit)
        return heads

    def serve_counts(self, counts: dict[int, int], now: float) -> None:
        """Dequeue the next ``counts[port]`` rows of each port."""
        for port, count in counts.items():
            self._port(port).serve_count(count, now)


class PortGroups:
    """A batch's rows grouped by egress port and class, once.

    ``port`` is every row's port or one port per row; a port outside
    ``range(n_ports)`` raises ``IndexError`` and a port array that is
    not one per row ``ValueError``, before any AQM or queue sees a row.
    ``order`` is the rows in one stable ``(port, class)`` sort, and
    ``groups`` holds ``(port, rows, runs)`` per port in order of first
    row (the order the AQMs draw in): its rows in row order (None when
    it holds them all) and its ``(class, start, stop)`` runs of
    ``order``.
    """

    __slots__ = ("batch", "order", "groups")

    def __init__(self, port, batch: PacketBatch, n_ports: int,
                 n_classes: int) -> None:
        ports = np.asarray(port)
        n = len(batch)
        if ports.ndim and ports.shape != (n,):
            raise ValueError(f"need one port per row: {ports.shape} "
                             f"ports for {n} rows")
        key = ports * n_classes \
            + np.minimum(batch.priorities, n_classes - 1)
        slots = n_ports * n_classes
        try:
            counts = np.bincount(key, minlength=slots).tolist() if n \
                else [0] * slots
        except ValueError:  # a negative port
            counts = []
        if len(counts) != slots \
                or ports.ndim == 0 and not 0 <= port < n_ports:
            bad = ports[(ports < 0) | (ports >= n_ports)]
            raise IndexError(f"port {bad[0]} out of range")
        self.batch = batch
        self.order = order = key.argsort(kind="stable")
        runs: dict[int, list] = {}
        stop = 0
        for slot, count in enumerate(counts):
            if count:
                runs.setdefault(slot // n_classes, []).append(
                    (slot % n_classes, stop, stop + count))
                stop += count
        self.groups = [(port, None, port_runs)
                       for port, port_runs in runs.items()]
        if len(runs) > 1:
            # Sorted by port alone, each port's rows keep row order.
            by_port = order if n_classes == 1 \
                else ports.argsort(kind="stable")
            groups = [(port, by_port[port_runs[0][1]:port_runs[-1][2]],
                       port_runs) for port, port_runs in runs.items()]
            self.groups = [group for _, group in sorted(
                zip([rows[0] for _, rows, _ in groups], groups))]


def offer(credits: list[float], budget: float, n_ports: int
          ) -> dict[int, float]:
    """``{port: credits[port] + budget}``: a drain's byte offer."""
    if len(credits) != n_ports:
        raise ValueError(f"need one credit per port: {len(credits)} "
                         f"for {n_ports} ports")
    return {port: credit + budget for port, credit in enumerate(credits)}


def serve_offer(offered: dict[int, float], sources: list, dequeue,
                cursor: list[int], now: float) -> dict[int, float]:
    """Serve ``offered[port]`` bytes per port from ``sources``; the
    credits left.

    ``sources`` are traffic managers (one, or a fabric's shards');
    ``dequeue(port)`` is the per-packet reference, visiting them
    round-robin from ``cursor[port]``.  Bit-identical to
    :func:`serve_each` over ``dequeue``, port by port.  The sources'
    O(1) counters classify each port: an idle port forfeits its
    credit; a port where a source's AQM may drop at the head (CoDel, a
    degraded table) runs that loop, since a head drop consumes no
    credit; a *covered* port, offered more than its whole backlog,
    serves all of it and forfeits the rest; the other ports go to
    :func:`_serve_partial`.  Each source then serves its per-port
    counts in one ``serve_counts`` call.

    Covering is exact: integer sizes subtracted from a positive float
    below 2^53 (ulp <= 1) stay exact and positive, and one of 2^53 or
    more cannot reach zero, so the walk serves every packet and finds
    the port idle.  Its last round visits the sources holding the most
    packets in cyclic order from the cursor, which ends one past the
    last of them.
    """
    left = dict(offered)
    held: dict[int, list] = {}
    for index, source in enumerate(sources):
        for port, occupancy in source.occupancy(offered).items():
            held.setdefault(port, []).append((index, *occupancy))
    n = len(sources)
    counts: list[dict[int, int]] = [{} for _ in sources]
    partial = {}
    for port, credit in offered.items():
        parts = held.get(port)
        if parts is None:
            left[port] = 0.0 if credit > 0.0 else credit
        elif not all([replays for _, _, _, replays in parts]):
            left[port] = serve_each(lambda: dequeue(port), credit)
        elif credit > sum([nbytes for _, _, nbytes, _ in parts]):
            left[port] = 0.0
            most = max([packets for _, packets, _, _ in parts])
            last = max([(index - cursor[port]) % n
                        for index, packets, _, _ in parts
                        if packets == most])
            cursor[port] = (cursor[port] + last + 1) % n
            for index, packets, _, _ in parts:
                counts[index][port] = packets
        else:
            partial[port] = credit
    if partial:
        left.update(_serve_partial(partial, sources, cursor, counts))
    for source, source_counts in zip(sources, counts):
        if source_counts:
            source.serve_counts(source_counts, now)
    return left


def _serve_partial(credits: dict[int, float], sources: list,
                   cursor: list[int], counts: list) -> dict[int, float]:
    """Book what ``credits`` buys on ports they do not cover; the
    credits left.  Each port's heads, in visiting order, are cut by one
    :func:`spend_credits` walk."""
    parts: dict[int, list] = {port: [] for port in credits}
    for index, source in enumerate(sources):
        for port, head in source.heads(credits).items():
            parts[port].append((index, head))
    busy = list(parts.items())
    n = len(sources)
    if n == 1:  # one source: its heads are already in visiting order
        served, rest = spend_credits(list(credits.values()),
                                     [port_heads[0][1]
                                      for _, port_heads in busy])
        for port, count in zip(credits, served):
            counts[0][port] = count
    else:
        heads, sources_of = _visiting_order(busy, cursor, n)
        served, rest = spend_credits(list(credits.values()), heads)
        for port, source_of, count in zip(credits, sources_of, served):
            taken = np.bincount(source_of[:count], minlength=n).tolist()
            for index, source_count in enumerate(taken):
                if source_count:
                    counts[index][port] = source_count
            cursor[port] = (int(source_of[count - 1]) + 1) % n
    return dict(zip(credits, rest))


def _visiting_order(busy: list, cursor: list[int], n: int
                    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Each busy port's heads merged in visiting order (round r visits
    each source holding an r-th packet, from the port's cursor), and
    every entry's source; one ``argsort`` over ``(port, rank, visit)``
    keys orders every port at once."""
    width = n * max([len(head) for _, parts in busy for _, head in parts])
    bases, lengths, indices, heads, totals = [], [], [], [], []
    start = 0
    for slot, (port, parts) in enumerate(busy):
        for index, head in parts:
            bases.append(slot * width + (index - cursor[port]) % n
                         - start * n)
            lengths.append(len(head))
            indices.append(index)
            heads.append(head)
            start += len(head)
        totals.append(start)
    order = np.argsort(np.repeat(bases, lengths) + np.arange(start) * n)
    ordered = np.concatenate(heads)[order]
    source_of = np.repeat(indices, lengths)[order]
    bounds = list(zip([0] + totals[:-1], totals))
    return ([ordered[a:b] for a, b in bounds],
            [source_of[a:b] for a, b in bounds])


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


def spend_credits(credits, heads) -> tuple[list[int], list[float]]:
    """``(served, credit left)`` per port for :func:`serve_each` over
    each port's head sizes.

    Port i serves packet k while ``credits[i] - heads[i][:k]`` is
    still positive.  One ``np.subtract.accumulate`` along the rows of
    a zero-padded (ports x head) matrix is every port's walk, the
    same sequential float subtraction as the per-packet loop, so the
    carried credits match it bit for bit.  A head must cover its
    credit or be the whole queue: serving all of it with credit to
    spare means the port went idle, which forfeits the rest.
    """
    lengths = [len(head) for head in heads]
    run = np.zeros((len(heads), max(lengths) + 1))
    run[:, 0] = credits
    for row, head in enumerate(heads):
        run[row, 1:lengths[row] + 1] = head
    run = np.subtract.accumulate(run, axis=1)
    # Past a head's end its row stays at the final credit: positive
    # only if the port went idle, when every column counts.
    served = np.minimum(np.count_nonzero(run[:, :-1] > 0.0, axis=1),
                        lengths)
    left = run[np.arange(len(heads)), served]
    left = np.where(left > 0.0, 0.0, left)
    return served.tolist(), left.tolist()
