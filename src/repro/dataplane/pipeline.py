"""The full memristor-based cognitive packet processor (Figure 5).

Wires together every block of the proposed architecture:

    ingress -> Parser -> digital MATs (firewall, IP lookup on
    memristor TCAMs) -> analog MATs (pCAM) -> Cognitive Traffic
    Manager (pCAM-based AQM at egress) -> egress queues

and walks every chunk through that fixed pipeline itself: digital
MATs, then aCAM classification when a classifier is installed, then
egress.  Every entry point — ``process_batch`` (columnar: a
:class:`~repro.simnet.workloads.ChunkColumns` chunk natively, or a
``Packet`` sequence extracted once at the edge), ``process`` (scalar)
and ``process_frame``/``process_frames`` (wire format, parsed in one
pass first) — is a :class:`~repro.dataplane.fastpath.PacketBatch`
chunk through the same walk; the scalar path is literally a batch of
one, so the paths cannot drift apart.  Results come back as
:class:`~repro.dataplane.results.BatchResults` (verdict/port arrays
that also read as ``ProcessResult`` values).  The walk counts chunks
and stage runs, attributes each stage's ledger energy to it, opens
chunk and stage spans on the observability hub's tracer and calls the
``supervise`` hook once per chunk; stages write their counters
straight into the switch's telemetry collector, and a per-component
energy ledger attributes each packet's cost to the digital and analog
domains.  The walk pauses inside its digital-MAT stage for the
chunk's table searches (:func:`walk_chunks`): a switch runs one walk
at a time, a fabric the walks of all its shards for one chunk, so
shards that share their tables search them once.
"""

from __future__ import annotations

from typing import Generator, Sequence

import numpy as np

from repro.control.cognitive import CognitiveNetworkController
from repro.dataplane.classify import ClassificationStage
from repro.dataplane.fastpath import FlowCache, PacketBatch, classify_chunk
from repro.dataplane.results import (
    DROP_EVENTS,
    VERDICT_CODES,
    BatchResults,
    ProcessResult,
    Verdict,
)
from repro.dataplane.stages import DigitalMatsStage, EgressStage
from repro.dataplane.parser import HeaderParser
from repro.dataplane.telemetry import TelemetryCollector
from repro.dataplane.traffic_manager import CognitiveTrafficManager
from repro.energy.ledger import EnergyLedger
from repro.netfunc.aqm.pcam_aqm import PCAMAQM
from repro.netfunc.firewall import Action, Firewall, FirewallRule
from repro.netfunc.lookup import IPLookup
from repro.observability.adapters import (
    bind_degradation,
    bind_ledger,
    bind_runtime,
    bind_telemetry,
)
from repro.observability.hub import Observability
from repro.observability.tracing import maybe_span
from repro.packet import Packet
from repro.tcam.mtcam import MemristorTCAM

__all__ = ["AnalogPacketProcessor", "BatchResults", "ProcessResult",
           "Verdict", "walk_chunks"]


def walk_chunks(walks: list[Generator], firewall, lookup,
                tracer=None) -> None:
    """Run chunk walks to their end with one digital classification.

    Each walk (:meth:`AnalogPacketProcessor.walk`) runs into its
    digital-MAT stage and yields its part; one
    :func:`~repro.dataplane.fastpath.classify_chunk` call over every
    part searches the shared ``firewall`` and ``lookup`` (its spans on
    ``tracer``), and each walk then finishes with its own outcome —
    the last opened first, so walks sharing one tracer close their
    spans innermost first.  A walk an error leaves unfinished is
    closed, which still books its stage energy and supervises it.
    """
    try:
        parts = list(map(next, walks))
        outcomes = classify_chunk(parts, firewall, lookup, tracer)
        for walk, outcome in zip(walks[::-1], outcomes[::-1]):
            try:
                walk.send(outcome)
            except StopIteration:
                pass
    finally:
        for walk in walks[::-1]:
            walk.close()


class AnalogPacketProcessor:
    """The Figure 5 switch: digital + analog match-action pipeline.

    Parameters
    ----------
    n_ports:
        Number of egress ports.
    use_memristor_tcam:
        Back the digital tables with memristor TCAMs (the paper's
        architecture) instead of transistor TCAMs (the baseline).
    aqm_factory:
        Builds the per-port AQM; defaults to the pCAM-based AQM.
    port_rate_bps:
        Egress line rate used by the AQM's delay estimator.
    flow_cache_size:
        Capacity of the LRU flow-result cache on the digital tables
        (keyed on flow 5-tuple + table generation); ``0`` disables
        caching so every packet hits the TCAMs.
    graceful_degradation:
        Wrap each port's AQM in a
        :class:`~repro.robustness.degradation.DegradingAQM` (shadow
        oracle + digital CoDel fallback + reprogram-retry backoff).
        Ignored when an explicit ``aqm_factory`` is given.
    observability:
        Optional :class:`~repro.observability.hub.Observability` hub.
        When given, the pipeline's telemetry collector and energy
        ledger are folded onto the hub's registry, degradation-capable
        AQMs are bound as fallback/retry metrics, the shared tracer
        spans the chunks and stages (parser -> tables ->
        traffic manager -> queues -> pCAM pipeline), and the batch kernels
        report to the hub's profiler.  Without a hub every hook stays
        inert.
    """

    def __init__(self, n_ports: int = 4, *,
                 use_memristor_tcam: bool = True,
                 aqm_factory=None,
                 port_rate_bps: float = 10e9,
                 queue_capacity: int = 4096,
                 flow_cache_size: int = 4096,
                 n_priorities: int = 2,
                 graceful_degradation: bool = False,
                 controller: CognitiveNetworkController | None = None,
                 observability: Observability | None = None
                 ) -> None:
        if n_ports < 1:
            raise ValueError(f"need at least one port: {n_ports!r}")
        self.ledger = EnergyLedger()
        self.parser = HeaderParser()
        if use_memristor_tcam:
            firewall_tcam = MemristorTCAM(Firewall.WIDTH,
                                          ledger=self.ledger)
            lookup_tcam = MemristorTCAM(IPLookup.WIDTH, ledger=self.ledger)
        else:
            firewall_tcam = None
            lookup_tcam = None
        self.firewall = Firewall(default_action=Action.PERMIT,
                                 tcam=firewall_tcam, ledger=self.ledger)
        self.lookup = IPLookup(tcam=lookup_tcam, ledger=self.ledger)
        if aqm_factory is not None:
            factory = aqm_factory
        elif graceful_degradation:
            # Deferred import: robustness sits above the dataplane.
            from repro.robustness.degradation import DegradingAQM
            factory = lambda: DegradingAQM(PCAMAQM(ledger=self.ledger))
        else:
            factory = lambda: PCAMAQM(ledger=self.ledger)
        self.observability = observability
        tracer = observability.tracer if observability else None
        self.traffic_manager = CognitiveTrafficManager(
            n_ports, aqm_factory=factory,
            n_priorities=n_priorities,
            queue_capacity=queue_capacity,
            port_rate_bps=port_rate_bps,
            tracer=tracer)
        self.controller = controller or CognitiveNetworkController()
        self.telemetry = TelemetryCollector()
        self.flow_cache = FlowCache(flow_cache_size) \
            if flow_cache_size > 0 else None
        self._ports_by_hop: dict[str, int] = {}
        self.processed = 0
        self.verdict_counts: dict[Verdict, int] = {
            verdict: 0 for verdict in Verdict}
        #: The installed :class:`~repro.acam.compiler.ACAMClassifier`
        #: (``build_switch`` sets it); None skips classification.
        self.classifier = None
        #: Called as ``supervise(now)`` once per match-action chunk,
        #: after its stages (e.g. the controller's ``tick``), or None.
        self.supervise = None
        self.tracer = tracer
        #: Match-action chunks walked since assembly (all entry points).
        self.chunks = 0
        #: Stage runs by stage name since assembly.
        self.stage_runs: dict[str, int] = {}
        self._joules: dict[str, float] = {}
        self._digital_stage = DigitalMatsStage(self)
        self._classify_stage = ClassificationStage(self)
        self._egress_stage = EgressStage(self)
        if observability is not None:
            self._wire_observability(observability)

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def _wire_observability(self, obs: Observability) -> None:
        """Bind every pipeline component to the shared hub."""
        bind_telemetry(obs.registry, self.telemetry)
        bind_ledger(obs.registry, self.ledger)
        bind_runtime(obs.registry, self)
        for port in range(self.traffic_manager.n_ports):
            aqm = self.traffic_manager.aqm(port)
            if hasattr(aqm, "maybe_retry") and hasattr(
                    aqm, "fallback_events"):
                table = getattr(aqm, "table", "pcam_aqm")
                bind_degradation(obs.registry, aqm,
                                 table=f"port{port}.{table}")
            # DegradingAQM forwards ``pipeline`` to its wrapped analog
            # AQM, so one attribute covers bare and wrapped tables.
            pipeline = getattr(aqm, "pipeline", None)
            if pipeline is not None:
                pipeline.tracer = obs.tracer
                pipeline.profiler = obs.profiler

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def add_route(self, prefix: str, port: int) -> None:
        """Route a prefix to an egress port (invalidates flow cache)."""
        if not 0 <= port < self.traffic_manager.n_ports:
            raise IndexError(f"port {port} out of range")
        next_hop = f"port{port}"
        self._ports_by_hop[next_hop] = port
        self.lookup.add_route(prefix, next_hop)
        self.invalidate_flow_cache()

    def digital_tables(self) -> tuple:
        """What the digital MATs hold, comparable across switches: the
        firewall's TCAM kind, default action and rules, the lookup's
        TCAM kind and routes, and the next-hop -> port map."""
        firewall, lookup = self.firewall, self.lookup
        return (type(firewall.tcam), firewall.default_action,
                firewall.rules, type(lookup.tcam), lookup.routes,
                self._ports_by_hop)

    def share_tables(self, owner: "AnalogPacketProcessor") -> None:
        """Classify against ``owner``'s firewall, IP lookup and
        next-hop -> port map from now on (a fabric's one table set).

        A route or rule added through either switch then reaches both;
        each keeps its own flow cache, which the shared table
        generations flush on the next probe.
        """
        self.firewall = owner.firewall
        self.lookup = owner.lookup
        self._ports_by_hop = owner._ports_by_hop

    def add_firewall_rule(self, rule: FirewallRule) -> None:
        """Append an ACL rule (invalidates the flow cache)."""
        self.firewall.add_rule(rule)
        self.invalidate_flow_cache()

    def invalidate_flow_cache(self) -> None:
        """Drop every cached digital classification result.

        Table mutations call this automatically; the table generation
        counters would catch a stale entry anyway, so this is the
        explicit belt to the generation braces (and the hook for
        out-of-band invalidation, e.g. after fault injection).
        """
        if self.flow_cache is not None:
            self.flow_cache.clear()

    # ------------------------------------------------------------------
    # Data path (every entry point is chunks through one walk)
    # ------------------------------------------------------------------
    def process_frame(self, frame: bytes, now: float = 0.0
                      ) -> ProcessResult:
        """Parse a wire-format Ethernet frame and process it."""
        return self.process_frames([frame], now, chunk_size=1)[0]

    def process_frames(self, frames: Sequence[bytes], now: float = 0.0,
                       chunk_size: int = 64) -> BatchResults:
        """Parse and process a burst of wire-format frames.

        The whole burst is parsed in one columnar pass, booked as one
        ``parser`` stage run (malformed frames yield ``DROPPED_PARSE``
        results in place); the survivors then ride the same chunked
        match-action walk as :meth:`process_batch`.  Results are
        returned in frame order.
        """
        self._set_time(now)
        results = BatchResults.empty(len(frames), [None] * len(frames))
        self.stage_runs["parser"] = self.stage_runs.get("parser", 0) + 1
        before = self.ledger.total
        with maybe_span(self.tracer, "dataplane.parse",
                        frames=len(frames)):
            parsed = self.parser.parse_frames(frames, created_at=now)
        self._attribute("parser", before)
        parsed_ok = np.array([packet is not None for packet in parsed],
                             dtype=bool)
        index = np.flatnonzero(parsed_ok)
        if len(index) < len(parsed):
            verdict = Verdict.DROPPED_PARSE
            self.telemetry.record_event(DROP_EVENTS[verdict],
                                        len(parsed) - len(index))
            self._emitter(results)(np.flatnonzero(~parsed_ok), verdict)
        packets = [parsed[row] for row in index.tolist()]
        for row, packet in zip(index.tolist(), packets):
            results.packets[row] = packet
        self._run_chunks(PacketBatch(packets), index, now, chunk_size,
                         results)
        return results

    def process(self, packet: Packet, now: float = 0.0) -> ProcessResult:
        """Run one parsed packet through the match-action pipeline.

        Literally a batch of one through the chunk walk, so the
        scalar and batched paths cannot drift apart.
        """
        return self._process([packet], now, 1, "dataplane.process")[0]

    def process_batch(self, packets, now: float = 0.0,
                      chunk_size: int = 64) -> BatchResults:
        """Run a batch through the pipeline in admission chunks.

        ``packets`` is a ``ChunkColumns`` chunk (the native path), a
        :class:`PacketBatch`, or a ``Packet`` sequence (the scalar
        edge: its columns are extracted once and the objects come back
        on the results).  Per chunk, the digital match-action tables
        (ACL, IP lookup) are consulted in whole-batch vectorised TCAM
        passes, with repeated flows answered from the generation-keyed
        flow cache; egress admission is batched too: all survivors of
        a chunk bound for the same port are judged by that port's AQM
        in one vectorised pCAM search against the chunk-start queue
        state.  Results are returned in input order; ``chunk_size=1``
        reproduces :meth:`process` exactly.
        """
        return self._process(packets, now, chunk_size,
                             "dataplane.process_batch")

    def _process(self, packets, now: float, chunk_size: int,
                 entry_name: str) -> BatchResults:
        self._set_time(now)
        batch = PacketBatch.of(packets)
        results = BatchResults.empty(len(batch), batch.packets)
        self._run_chunks(batch, np.arange(len(batch)), now, chunk_size,
                         results, entry_name)
        return results

    def _run_chunks(self, batch: PacketBatch, index: np.ndarray,
                    now: float, chunk_size: int, results: BatchResults,
                    entry_name: str = "dataplane.process_batch") -> None:
        """Walk a batch through the match-action stages chunk by chunk:
        each chunk is a one-walk :func:`walk_chunks` call."""
        if chunk_size < 1:
            raise ValueError(
                f"chunk size must be >= 1: {chunk_size!r}")
        for start in range(0, len(batch), chunk_size):
            stop = start + chunk_size
            walk_chunks([self.walk(batch.slice(start, stop),
                                   index[start:stop], now, results,
                                   entry_name)],
                        self.firewall, self.lookup, self.tracer)

    def walk(self, batch: PacketBatch, index: np.ndarray, now: float,
             results: BatchResults,
             entry_name: str = "dataplane.process_batch") -> Generator:
        """Digital MATs -> (aCAM classification) -> egress for one chunk,
        booking row ``i``'s verdict at ``results[index[i]]``.

        The walk is a generator, run by :func:`walk_chunks`.  It runs
        into the digital-MAT stage, yields the chunk's
        :func:`~repro.dataplane.fastpath.classify_chunk` part ``(flow
        keys, flow cache, the stage's ledger)`` with the stage open, and
        is sent the part's outcome, so the searches are charged inside
        the stage.  The chunk runs under the ``entry_name`` span, and
        ``supervise(now)`` follows its stages, also when one of them
        raises or the walk is closed unfinished.  A stage runs only
        while rows survive: a chunk the digital tables drop entirely
        skips the rest.
        """
        self._set_time(now)
        emit = self._emitter(results)
        self.chunks += 1
        with maybe_span(self.tracer, entry_name, chunk=len(batch)):
            try:
                stage = self._digital_stage
                self.stage_runs[stage.name] = \
                    self.stage_runs.get(stage.name, 0) + 1
                before = self.ledger.total
                try:
                    with maybe_span(self.tracer, stage.span_name,
                                    chunk=len(batch)):
                        outcome = yield (batch.flow_keys, self.flow_cache,
                                         stage.ledger)
                        batch, index, ports = stage.process_batch(
                            batch, index, now, emit, outcome)
                finally:
                    self._attribute(stage.name, before)
                if not len(batch):
                    return
                if self.classifier is not None:
                    ports = self._stage(self._classify_stage, batch, ports)
                self._stage(self._egress_stage, batch, index, ports, now,
                            emit)
            finally:
                if self.supervise is not None:
                    self.supervise(now)

    def _stage(self, stage, batch: PacketBatch, *args):
        """Run one stage under its span, counting the run and booking
        the ledger energy it spends to it (also when it raises)."""
        name = stage.name
        self.stage_runs[name] = self.stage_runs.get(name, 0) + 1
        before = self.ledger.total
        try:
            with maybe_span(self.tracer, stage.span_name,
                            chunk=len(batch)):
                return stage.process_batch(batch, *args)
        finally:
            self._attribute(name, before)

    def _attribute(self, name: str, before: float) -> None:
        """Book the ledger energy spent since ``before`` to a stage."""
        self._joules[name] = self._joules.get(name, 0.0) \
            + (self.ledger.total - before)

    def _emitter(self, results: BatchResults):
        """An emit callback booking verdicts into the result arrays.

        ``rows`` is one absolute index or an index array, and ``port``
        one port or a port per row; counters move once per call.
        """
        codes = results.codes
        ports = results.ports
        counts = self.verdict_counts

        def emit(rows, verdict: Verdict, port=None) -> None:
            codes[rows] = VERDICT_CODES[verdict]
            if port is not None:
                ports[rows] = port
            n = np.size(rows)
            self.processed += n
            counts[verdict] += n
        return emit

    def _set_time(self, now: float) -> None:
        obs = self.observability
        if obs is not None:
            obs.set_time(now)

    def drain(self, port: int, now: float = 0.0,
              limit: int | None = None) -> list[Packet]:
        """Serve pending packets from one egress port."""
        served: list[Packet] = []
        while limit is None or len(served) < limit:
            packet = self.traffic_manager.dequeue(port, now)
            if packet is None:
                break
            served.append(packet)
        return served

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def energy_total_j(self) -> float:
        """Total energy across all pipeline components [J]."""
        return self.ledger.total

    def energy_breakdown(self) -> dict[str, float]:
        """Per-account energy totals of the whole pipeline [J]."""
        return self.ledger.breakdown()

    def energy_by_stage(self) -> dict[str, float]:
        """Ledger joules attributed to each stage name."""
        return dict(self._joules)

    def slice_extremes(self) -> tuple[float, float, int]:
        """(max delay EWMA, max PDP, max backlog) across the ports."""
        manager = self.traffic_manager
        analog = [getattr(aqm, "analog", aqm) for aqm
                  in map(manager.aqm, range(manager.n_ports))]
        return (max([aqm.delay_ewma_s for aqm in analog]),
                max([aqm.last_pdp for aqm in analog]),
                max(manager.backlogs()))

    def robustness_stats(self) -> dict:
        """Fallback events and retries summed over the ports, plus the
        tables currently degraded to their fallback."""
        manager = self.traffic_manager
        aqms = list(map(manager.aqm, range(manager.n_ports)))
        return {
            "fallback_events": sum(getattr(aqm, "fallback_events", 0)
                                   for aqm in aqms),
            "retries": sum(getattr(aqm, "retries", 0) for aqm in aqms),
            "degraded_tables": self.controller.degraded_tables(),
        }
