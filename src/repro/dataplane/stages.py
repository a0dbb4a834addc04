"""The Figure 5 switch blocks as runtime stages.

Each block of the paper's pipeline — parser, digital match-action
tables, egress admission — is one :class:`repro.runtime.Stage`
implementation over a :class:`~repro.dataplane.fastpath.PacketBatch`
(the parser alone consumes wire frames and produces the batch).
Stages emit final verdicts through the
:class:`~repro.runtime.stage.StageContext` — one ``emit`` per verdict
kind per chunk, over an index array — and write telemetry in bulk
into the context's collector; tracing, energy attribution and
supervision are done by the composing runtime, not code here.

Stages hold a reference to the owning
:class:`~repro.dataplane.pipeline.AnalogPacketProcessor` and read its
tables, flow cache and traffic manager at call time, so run-time
reconfiguration (route updates, cache invalidation, fault injection)
is always visible to the next chunk.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.dataplane.fastpath import (
    PacketBatch,
    classify_chunk,
    first_appearance_counts,
)
from repro.dataplane.results import DROP_EVENTS, Verdict
from repro.dataplane.traffic_manager import ADMISSIONS, Admission
from repro.netfunc.firewall import Action
from repro.runtime import StageContext

__all__ = ["ADMISSION_VERDICTS", "DigitalMatsStage", "EgressStage",
           "ParserStage"]

_VERDICT_OF = {Admission.QUEUED: Verdict.QUEUED,
               Admission.AQM_DROP: Verdict.DROPPED_AQM,
               Admission.OVERFLOW_DROP: Verdict.DROPPED_OVERFLOW}
#: Egress admission code -> final packet verdict.
ADMISSION_VERDICTS: tuple[Verdict, ...] = tuple(
    _VERDICT_OF[admission] for admission in ADMISSIONS)


class ParserStage:
    """Wire-format frames -> parsed packets (malformed ones dropped)."""

    name = "parser"
    span_name = "dataplane.parse"

    def __init__(self, switch) -> None:
        self.switch = switch

    def span_attributes(self, frames: Sequence[bytes]) -> dict:
        return {"frames": len(frames)}

    def process_batch(self, frames: Sequence[bytes],
                      ctx: StageContext) -> PacketBatch:
        parsed = self.switch.parser.parse_frames(frames, created_at=ctx.now)
        index = ctx.indices
        dropped = [offset for offset, packet in enumerate(parsed)
                   if packet is None]
        if dropped:
            ctx.telemetry.record_event(DROP_EVENTS[Verdict.DROPPED_PARSE],
                                       len(dropped))
            ctx.emit(index[dropped], Verdict.DROPPED_PARSE)
            kept = np.flatnonzero([packet is not None for packet in parsed])
            ctx.columns["index"] = index[kept]
        return PacketBatch([p for p in parsed if p is not None])


class DigitalMatsStage:
    """ACL + LPM over the memristor TCAMs, one columnar pass per chunk.

    Emits ``DROPPED_ACL``/``DROPPED_NO_ROUTE`` for the rows the
    digital tables dispose of, INT-stamps the survivors with their
    egress queue state, and publishes the resolved ``egress_port``
    column for the egress stage.  The per-row outcome comes from
    :func:`classify_chunk` as an index into the chunk's few distinct
    outcomes (in first-appearance order), so the tallies are sums over
    outcomes and the verdicts and ports are gathers over that index —
    no per-row Python.
    """

    name = "digital_mats"
    span_name = "dataplane.digital_mats"

    def __init__(self, switch) -> None:
        self.switch = switch

    def span_attributes(self, batch: PacketBatch) -> dict:
        return {"chunk": len(batch)}

    def process_batch(self, batch: PacketBatch,
                      ctx: StageContext) -> PacketBatch:
        switch, telemetry, index = self.switch, ctx.telemetry, ctx.indices
        if not len(batch):
            ctx.columns["egress_port"] = np.zeros(0, dtype=np.intp)
            return batch
        row_entry, entries = classify_chunk(
            batch, switch.firewall, switch.lookup, switch.flow_cache,
            ctx.tracer)
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
            rows = np.flatnonzero(row_kind == code)
            telemetry.record_event(DROP_EVENTS[verdict], len(rows))
            batch.mark_dropped(rows)
            ctx.emit(index[rows], verdict)
        rows = np.flatnonzero(row_kind >= 2)
        ports = row_kind[rows] - 2
        survivors = batch if len(rows) == len(batch) else batch.take(rows)
        if len(rows):
            backlogs = np.array(switch.traffic_manager.backlogs())
            survivors.stamp(ports, backlogs[ports], ctx.now)
        ctx.columns["index"] = index[rows]
        ctx.columns["egress_port"] = ports
        return survivors


class EgressStage:
    """Batched per-port AQM admission into the egress queues.

    One ``enqueue_batch`` call admits the whole chunk, each port's
    AQM judging its group against the chunk-start queue state.  With
    no drop the chunk's verdicts are one ``emit``; otherwise each port
    emits per admission outcome (once, if it dropped nothing).
    """

    name = "egress"
    span_name = "dataplane.egress"

    def __init__(self, switch) -> None:
        self.switch = switch

    def span_attributes(self, batch: PacketBatch) -> dict:
        return {"chunk": len(batch)}

    def process_batch(self, batch: PacketBatch,
                      ctx: StageContext) -> list:
        manager = self.switch.traffic_manager
        ports = ctx.columns["egress_port"]
        if len(ports):
            index = ctx.indices
            codes = manager.enqueue_batch(ports, batch, ctx.now)
            backlogs = manager.backlogs()
            groups = first_appearance_counts(ports)
            for port, _ in groups:
                ctx.telemetry.set_gauge(f"port{port}.backlog",
                                        backlogs[port])
            if not codes.any():
                ctx.emit(index, Verdict.QUEUED, port=ports)
            else:
                for port, _ in groups:
                    rows = np.flatnonzero(ports == port)
                    port_codes = codes[rows]
                    if not port_codes.any():  # no drop: one emit
                        ctx.emit(index[rows], Verdict.QUEUED, port=port)
                        continue
                    for code, count in first_appearance_counts(port_codes):
                        verdict = ADMISSION_VERDICTS[code]
                        if verdict.dropped:
                            ctx.telemetry.record_event(DROP_EVENTS[verdict],
                                                       count)
                        ctx.emit(index[rows[port_codes == code]], verdict,
                                 port=port)
        empty = np.zeros(0, dtype=np.intp)
        ctx.columns["index"] = empty
        ctx.columns["egress_port"] = empty
        return []
