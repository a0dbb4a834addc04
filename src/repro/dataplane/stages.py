"""The Figure 5 switch blocks the processor walks each chunk through.

The digital match-action tables and egress admission are one class
each over a :class:`~repro.dataplane.fastpath.PacketBatch` (the aCAM
classification stage that may sit between them lives in
:mod:`repro.dataplane.classify`).  A stage takes what it uses as plain
arguments — the batch, the absolute row indices, the egress ports,
``now``, the ``emit`` callback, the tracer — and returns what the next
stage needs.  It emits final verdicts with one ``emit`` per verdict
kind per chunk, over an index array, and writes telemetry in bulk into
the switch's collector; tracing, energy attribution and supervision
are done by the processor's chunk walk, not code here.

Stages hold a reference to the owning
:class:`~repro.dataplane.pipeline.AnalogPacketProcessor` and read its
tables, flow cache and traffic manager at call time, so run-time
reconfiguration (route updates, cache invalidation, fault injection)
is always visible to the next chunk.
"""

from __future__ import annotations

import numpy as np

from repro.dataplane.fastpath import PacketBatch, first_appearance_counts
from repro.dataplane.results import DROP_EVENTS, Verdict
from repro.dataplane.traffic_manager import ADMISSIONS, Admission
from repro.netfunc.firewall import Action

__all__ = ["ADMISSION_VERDICTS", "DigitalMatsStage", "EgressStage"]

_VERDICT_OF = {Admission.QUEUED: Verdict.QUEUED,
               Admission.AQM_DROP: Verdict.DROPPED_AQM,
               Admission.OVERFLOW_DROP: Verdict.DROPPED_OVERFLOW}
#: Egress admission code -> final packet verdict.
ADMISSION_VERDICTS: tuple[Verdict, ...] = tuple(
    _VERDICT_OF[admission] for admission in ADMISSIONS)


class DigitalMatsStage:
    """ACL + LPM over the memristor TCAMs, one columnar pass per chunk.

    Emits ``DROPPED_ACL``/``DROPPED_NO_ROUTE`` for the rows the
    digital tables dispose of, INT-stamps the survivors with their
    egress queue state, and returns the survivors with their absolute
    row indices and resolved egress ports.  The per-row outcome is the
    chunk's :func:`~repro.dataplane.fastpath.classify_chunk` result,
    which the processor's chunk walk computes while the stage is open
    (on a fabric, for every shard's part of the slice at once): an
    index into the chunk's few distinct outcomes (in first-appearance
    order), so the tallies are sums over outcomes and the verdicts and
    ports are gathers over that index — no per-row Python.
    """

    name = "digital_mats"
    span_name = "dataplane.digital_mats"

    def __init__(self, switch) -> None:
        self.switch = switch
        #: The ledger that pays for this switch's table searches, bound
        #: at assembly like every component's (the tables themselves
        #: may be shared with other switches).
        self.ledger = switch.ledger

    def process_batch(self, batch: PacketBatch, index: np.ndarray,
                      now: float, emit, outcome: tuple[np.ndarray, list]
                      ) -> tuple[PacketBatch, np.ndarray, np.ndarray]:
        """(survivors, their indices, their egress ports) of a chunk,
        given its classification ``outcome``."""
        switch = self.switch
        telemetry = switch.telemetry
        row_entry, entries = outcome
        counts = np.bincount(row_entry, minlength=len(entries)).tolist()
        default = switch.firewall.default_action
        deny = Action.DENY
        ports_by_hop = switch._ports_by_hop
        acl_verdicts: dict = {}
        hop_verdicts: dict = {}
        acl_hits = routed = hop_hits = 0
        # Per outcome: 0 = ACL drop, 1 = no route, 2 = egress port + 2.
        kind = []
        for (action, hop), count in zip(entries, counts):
            value = action.value
            acl_verdicts[value] = acl_verdicts.get(value, 0) + count
            if action is not default:
                acl_hits += count
            if action is deny:
                kind.append(0)
                continue
            routed += count
            if hop is None:
                kind.append(1)
                continue
            hop_hits += count
            hop_verdicts[hop] = hop_verdicts.get(hop, 0) + count
            kind.append(ports_by_hop[hop] + 2)
        telemetry.record_lookup_batch("firewall", len(batch), acl_hits,
                                      acl_verdicts.items())
        if routed:
            telemetry.record_lookup_batch("ip_lookup", routed, hop_hits,
                                          hop_verdicts.items())
        row_kind = np.array(kind, dtype=np.intp)[row_entry]
        # Drop events in the order their first rows appear.
        for code in sorted({0, 1} & set(kind), key=kind.index):
            verdict = (Verdict.DROPPED_ACL, Verdict.DROPPED_NO_ROUTE)[code]
            rows = (row_kind == code).nonzero()[0]
            telemetry.record_event(DROP_EVENTS[verdict], len(rows))
            batch.mark_dropped(rows)
            emit(index[rows], verdict)
        rows = (row_kind >= 2).nonzero()[0]
        ports = row_kind[rows] - 2
        survivors = batch if len(rows) == len(batch) else batch.take(rows)
        if len(rows):
            backlogs = np.array(switch.traffic_manager.backlogs())
            survivors.stamp(ports, backlogs[ports], now)
        return survivors, index[rows], ports


class EgressStage:
    """Batched per-port AQM admission into the egress queues.

    The chunk is grouped by port once (``port_groups``) and admitted in
    one ``enqueue_batch`` pass.  With no drop the chunk's verdicts are
    one ``emit``; otherwise each port emits per admission outcome
    (once, if it dropped nothing).
    """

    name = "egress"
    span_name = "dataplane.egress"

    def __init__(self, switch) -> None:
        self.switch = switch

    def process_batch(self, batch: PacketBatch, index: np.ndarray,
                      ports: np.ndarray, now: float, emit) -> None:
        """Admit a chunk's rows to the queues of their egress ports."""
        manager = self.switch.traffic_manager
        telemetry = self.switch.telemetry
        groups = manager.port_groups(ports, batch)
        codes = manager.enqueue_batch(groups, batch, now)
        backlogs = manager.backlogs()
        for port, _, _ in groups.groups:
            telemetry.set_gauge(f"port{port}.backlog", backlogs[port])
        if not np.count_nonzero(codes):
            emit(index, Verdict.QUEUED, port=ports)
            return
        for port, rows, _ in groups.groups:
            port_index = index if rows is None else index[rows]
            port_codes = codes if rows is None else codes[rows]
            if not np.count_nonzero(port_codes):  # no drop: one emit
                emit(port_index, Verdict.QUEUED, port=port)
                continue
            for code, count in first_appearance_counts(port_codes):
                verdict = ADMISSION_VERDICTS[code]
                if verdict.dropped:
                    telemetry.record_event(DROP_EVENTS[verdict], count)
                emit(port_index[port_codes == code], verdict, port=port)
