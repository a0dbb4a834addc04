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

The pass judges every congested pCAM port of a slice in one stacked
kernel call; the second property pins that judge to each port judged
alone through ``on_enqueue_batch`` (the one-port path), over bare,
wrapped, retrying and fallback-serving tables, tail drop, a noisy
faulted stage and ECN marks.
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
from repro.energy.ledger import EnergyLedger
from repro.netfunc.aqm.base import AQMAlgorithm, TailDropAQM
from repro.netfunc.aqm.pcam_aqm import PCAMAQM
from repro.packet import Packet
from repro.robustness.degradation import DegradingAQM
from repro.robustness.injector import FaultInjector
from repro.robustness.models import TransientReadNoise
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


# ----------------------------------------------------------------------
# The stacked pCAM judge against each port judged alone
# ----------------------------------------------------------------------
#: Port kinds: a bare pCAM AQM, one in a healthy degradation wrapper,
#: one degraded with its retry due inside the first slice, one
#: degraded and serving its CoDel fallback, and tail drop.
KINDS = ("pcam", "wrapped", "retry", "fallback", "taildrop")


def analog_manager(case):
    """A traffic manager over ``case``'s ports, one shared ledger."""
    ledger = EnergyLedger()
    kinds = iter(case["kinds"])
    ports = iter(range(case["n_ports"]))

    def factory():
        kind, port = next(kinds), next(ports)
        if kind == "taildrop":
            return TailDropAQM()
        analog = PCAMAQM(rng=np.random.default_rng((case["seed"], port)),
                         ecn_enabled=case["ecn"], ledger=ledger,
                         adaptation_interval_s=0.02)
        if port == case["noisy"]:
            FaultInjector(TransientReadNoise(sigma=0.2), cell_fraction=0.5,
                          rng=np.random.default_rng(port)).inject_aqm(analog)
        if kind == "pcam":
            return analog
        wrapped = DegradingAQM(analog, check_interval=1)
        if kind != "wrapped":
            # Tripped at t=0 (retry due at 0.5) or at the first slice.
            wrapped._now = 0.0 if kind == "retry" else 0.5
            wrapped._trip()
        return wrapped

    manager = CognitiveTrafficManager(
        case["n_ports"], factory, n_priorities=2, queue_capacity=48,
        port_rate_bps=2e6, telemetry=TelemetryCollector())
    return manager, ledger


def analog_state(manager, ledger) -> dict:
    """Every counter the judge may move, and each stream's next draw."""
    ports = []
    for port in range(manager.n_ports):
        aqm = manager.aqm(port)
        analog = getattr(aqm, "analog", aqm)
        if not isinstance(analog, PCAMAQM):
            ports.append(None)
            continue
        cells = [analog.pipeline.stage(name)
                 for name in analog.pipeline.stage_names]
        ports.append({
            "aqm": (analog.evaluations, analog.last_pdp, analog.ecn_marks,
                    analog.adaptations, analog.threshold_shift,
                    analog.delay_ewma_s),
            "wrapper": None if aqm is analog else (
                aqm.mode, aqm.fallback_events, aqm.retries,
                aqm.recoveries, aqm.last_deviation, aqm.shadow.checks),
            "cells": [cell.evaluations for cell in cells],
            "next_draws": [analog._rng.random()] + [
                cell.fault._rng.random() for cell in cells
                if getattr(cell.fault, "_rng", None) is not None]})
    return {"ports": ports,
            "stats": [vars(stats) for stats in manager.stats],
            "backlogs": manager.backlogs(),
            "ledger": (sorted(ledger.breakdown().items()), ledger.events),
            "events": sorted(manager.telemetry.snapshot()["events"].items())}


@st.composite
def analog_scenarios(draw):
    n_ports = draw(st.integers(1, 4))
    ecn = draw(st.booleans())
    row = st.tuples(st.integers(0, n_ports - 1), st.integers(0, 2),
                    st.integers(200, 1500), st.booleans())
    return {
        "n_ports": n_ports,
        "seed": draw(st.integers(0, 2**16)),
        "kinds": draw(st.lists(st.sampled_from(KINDS), min_size=n_ports,
                               max_size=n_ports)),
        "noisy": draw(st.none() | st.integers(0, n_ports - 1)),
        "ecn": ecn,
        # ECN marks live on packet objects: columns only without it.
        "columns": not ecn and draw(st.booleans()),
        "prefill": draw(st.lists(st.integers(0, 12), min_size=n_ports,
                                 max_size=n_ports)),
        "steps": draw(st.lists(st.lists(row, min_size=1, max_size=24),
                               min_size=1, max_size=4)),
        "credits": draw(st.lists(st.integers(0, 9000), min_size=4,
                                 max_size=4)),
    }


def marked_packets(rows) -> list[Packet]:
    return [Packet(size_bytes=size, flow_id=flow, priority=prio,
                   fields={"ect": ect})
            for flow, (_, prio, size, ect) in enumerate(rows)]


@settings(max_examples=120, deadline=None)
@given(case=analog_scenarios())
def test_stacked_pcam_judge_equals_each_port_judged_alone(case):
    (stacked, stacked_ledger), (alone, alone_ledger) = (
        analog_manager(case), analog_manager(case))
    for port, count in enumerate(case["prefill"]):
        for manager in (stacked, alone):
            for _ in range(count):
                manager.queue_view(port).push(
                    Packet(size_bytes=1000, priority=1), 0.0)
    for step, rows in enumerate(case["steps"]):
        now = 0.5 + 0.01 * step
        ports = np.array([port for port, _, _, _ in rows], dtype=np.intp)
        expected_packets = marked_packets(rows)
        expected = reference_admit(alone, ports, expected_packets, now)
        packets = marked_packets(rows)
        codes = stacked.enqueue_batch(
            ports, as_columns(packets) if case["columns"] else packets, now)
        assert codes.tolist() == expected.tolist()
        if not case["columns"]:
            assert [(p.dropped, p.field("ce", False)) for p in packets] \
                == [(p.dropped, p.field("ce", False))
                    for p in expected_packets]
        for manager in (stacked, alone):
            manager.serve_ports([0.0] * manager.n_ports,
                                case["credits"][step], now + 0.005)
    assert analog_state(stacked, stacked_ledger) \
        == analog_state(alone, alone_ledger)
