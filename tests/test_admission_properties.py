"""One-pass admission equals the per-packet reference loop.

``CognitiveTrafficManager.enqueue_batch`` groups a batch's rows by port
once, lets each port's AQM judge its rows, then queues every port's
survivors per class from one ``(port, class)`` sort, cut to each class
queue's free slots.  The reference spells that out packet by packet:
each port, in order of its first row, has its AQM judge its rows (in
row order, against the port's state before any of them is queued) and
then runs ``PortQueue.push`` row by row.

Hypothesis draws the port count, class count, small capacities (so
queues overflow), pre-filled queues, a fake AQM dropping a drawn mask,
and both ``Packet`` and column batches.  Both sides must agree on the
codes, every class queue's FIFO (sizes, flows, ``enqueued_at``),
``PortStats``, each ``PacketQueue``'s ``enqueued``/``dropped``, the
telemetry events, what each AQM saw, and the packets' ``dropped``
flags.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane.fastpath import PacketBatch, first_appearance_counts
from repro.dataplane.telemetry import TelemetryCollector
from repro.dataplane.traffic_manager import (
    ADMISSIONS,
    Admission,
    CognitiveTrafficManager,
)
from repro.netfunc.aqm.base import AQMAlgorithm
from repro.packet import Packet
from repro.simnet.workloads import ChunkColumns

_QUEUED, _AQM_DROP, _OVERFLOW_DROP = (
    ADMISSIONS.index(kind) for kind in
    (Admission.QUEUED, Admission.AQM_DROP, Admission.OVERFLOW_DROP))


class MaskAQM(AQMAlgorithm):
    """Drops rows by a fixed cyclic mask; logs what each call saw."""

    name = "mask"

    def __init__(self, mask: list[bool]) -> None:
        self.mask = mask
        self.cursor = 0
        self.seen: list = []

    def on_enqueue_batch(self, packets, queue, now):
        batch = PacketBatch.of(packets)
        self.seen.append((queue.backlog_packets, now,
                          batch.flow_ids.tolist()))
        drops = [self.mask[(self.cursor + row) % len(self.mask)]
                 for row in range(len(batch))]
        self.cursor += len(batch)
        return np.array(drops, dtype=bool)


def reference_admit(manager, ports, packets, now) -> np.ndarray:
    """The per-packet loop over ``packets`` (``Packet`` objects)."""
    codes = np.zeros(len(packets), dtype=np.uint8)
    for port, _ in first_appearance_counts(np.asarray(ports)):
        rows = np.flatnonzero(np.asarray(ports) == port).tolist()
        queue = manager.queue_view(port)
        drops = queue.judge([packets[row] for row in rows], now)
        for row, drop in zip(rows, drops.tolist()):
            packet = packets[row]
            if drop:
                packet.dropped = True
                queue.stats.aqm_drops += 1
                codes[row] = _AQM_DROP
            elif not queue.push(packet, now):
                codes[row] = _OVERFLOW_DROP
        for code, count in first_appearance_counts(codes[rows]):
            manager.telemetry.record_event(
                f"port{port}.{ADMISSIONS[code].value}", count)
    return codes


def state(manager) -> dict:
    """Everything admission may change, with the FIFOs popped empty."""
    fifo = []
    for port in range(manager.n_ports):
        for prio in range(manager.n_priorities):
            queue = manager.queue(port, prio)
            counters = (queue.enqueued, queue.dropped, len(queue),
                        queue.backlog_bytes)
            rows = []
            while (packet := queue.pop()) is not None:
                rows.append((packet.size_bytes, packet.flow_id,
                             packet.enqueued_at))
            fifo.append((counters, rows))
    return {"fifo": fifo,
            "stats": [vars(stats) for stats in manager.stats],
            "events": list(manager.telemetry.snapshot()["events"].items()),
            "seen": [manager.aqm(port).seen
                     for port in range(manager.n_ports)]}


def make_packets(rows) -> list[Packet]:
    return [Packet(size_bytes=size, flow_id=flow, priority=prio)
            for flow, (_, prio, size) in enumerate(rows)]


def as_columns(packets) -> ChunkColumns:
    n = len(packets)
    return ChunkColumns(
        times_s=np.zeros(n), sizes_bytes=[p.size_bytes for p in packets],
        flow_ids=[p.flow_id for p in packets],
        priorities=[p.priority for p in packets],
        src_ip=np.ones(n, dtype=np.int64), dst_ip=np.full(n, 7),
        src_port=np.ones(n, dtype=np.int64), dst_port=np.full(n, 80),
        protocol=np.full(n, 6), has_dst=np.ones(n, dtype=bool))


@st.composite
def scenarios(draw):
    n_ports = draw(st.integers(1, 4))
    n_classes = draw(st.integers(1, 3))
    row = st.tuples(st.integers(0, n_ports - 1), st.integers(0, 3),
                    st.integers(64, 1500))
    return {
        "n_ports": n_ports,
        "n_classes": n_classes,
        "capacity": draw(st.integers(1, 4)),
        "masks": draw(st.lists(
            st.lists(st.booleans(), min_size=1, max_size=5),
            min_size=n_ports, max_size=n_ports)),
        "prefill": draw(st.lists(row, max_size=6)),
        "steps": draw(st.lists(st.lists(row, max_size=12), min_size=1,
                               max_size=3)),
        "columns": draw(st.booleans()),
        "scalar_port": draw(st.booleans()),
    }


@settings(max_examples=150, deadline=None)
@given(case=scenarios())
def test_one_pass_admission_equals_the_per_packet_loop(case):
    def manager():
        masks = iter(case["masks"])
        return CognitiveTrafficManager(
            case["n_ports"], lambda: MaskAQM(next(masks)),
            n_priorities=case["n_classes"],
            queue_capacity=case["capacity"],
            telemetry=TelemetryCollector())

    one_pass, loop = manager(), manager()
    for port, prio, size in case["prefill"]:
        for copy in (one_pass, loop):
            copy.queue_view(port).push(
                Packet(size_bytes=size, priority=prio), 0.0)
    for step, rows in enumerate(case["steps"]):
        now = 1e-3 * (step + 1)
        ports = np.array([port for port, _, _ in rows], dtype=np.intp)
        if case["scalar_port"] and len(set(ports.tolist())) == 1:
            ports = int(ports[0])
        expected_packets = make_packets(rows)
        expected = reference_admit(
            loop, np.broadcast_to(ports, len(rows)), expected_packets, now)
        packets = make_packets(rows)
        codes = one_pass.enqueue_batch(
            ports, as_columns(packets) if case["columns"] else packets,
            now)
        assert codes.tolist() == expected.tolist()
        if not case["columns"]:
            assert [p.dropped for p in packets] \
                == [p.dropped for p in expected_packets]
            assert [p.enqueued_at for p in packets] \
                == [p.enqueued_at for p in expected_packets]
    assert state(one_pass) == state(loop)
