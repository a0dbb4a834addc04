"""The switch's fixed chunk walk and the duties it does inline.

``AnalogPacketProcessor`` walks every chunk through digital MATs ->
(aCAM classification) -> egress itself.  These tests pin what that
walk does around its stages on the Figure 5 switch: chunk and stage
spans, per-stage energy attribution, supervision once per chunk — for
frame bursts too — and all of it when a stage raises.
"""

import numpy as np
import pytest

from repro.dataplane.parser import build_ethernet_frame, build_ipv4_packet
from repro.dataplane.stages import EgressStage
from repro.energy.ledger import EnergyLedger


def build_processor():
    from repro.dataplane.pipeline import AnalogPacketProcessor
    from repro.netfunc.aqm.pcam_aqm import PCAMAQM
    from repro.netfunc.firewall import Action, FirewallRule
    from repro.observability import Observability

    obs = Observability()
    processor = AnalogPacketProcessor(
        n_ports=2,
        aqm_factory=lambda: PCAMAQM(rng=np.random.default_rng(11)),
        observability=obs)
    processor.add_firewall_rule(FirewallRule(
        action=Action.DENY, dst_prefix="203.0.113.0/24"))
    processor.add_route("10.0.0.0/8", 0)
    processor.add_route("192.168.0.0/16", 1)
    return processor, obs


def make_traffic(n=60, seed=3):
    from repro.packet import Packet

    rng = np.random.default_rng(seed)
    dsts = ["10.1.2.3", "192.168.7.7", "203.0.113.9", "8.8.8.8"]
    return [Packet(size_bytes=int(rng.integers(64, 1500)),
                   fields={"src_ip": "1.2.3.4",
                           "dst_ip": dsts[int(rng.integers(len(dsts)))],
                           "src_port": 1000, "dst_port": 80,
                           "protocol": 6})
            for _ in range(n)]


def run_switch(processor):
    results = processor.process_batch(make_traffic(), now=0.25,
                                      chunk_size=16)
    return [r.verdict for r in results] + [
        processor.process(packet, now=0.5).verdict
        for packet in make_traffic(n=5, seed=9)]


class TestChunkWalk:
    """The walk's inline duties on the Figure 5 switch."""

    def test_spans_attribution_and_telemetry_recorded(self):
        processor, obs = build_processor()
        run_switch(processor)
        names = {span.name for span in obs.tracer.finished}
        assert {"dataplane.process_batch", "dataplane.process",
                "dataplane.digital_mats", "dataplane.egress"} <= names
        by_stage = processor.energy_by_stage()
        assert set(by_stage) == {"digital_mats", "egress"}
        assert sum(by_stage.values()) == \
            pytest.approx(processor.ledger.total)
        assert processor.telemetry.snapshot()["tables"]

    def test_stage_spans_nest_under_the_chunk_span(self):
        processor, obs = build_processor()
        processor.process_batch(make_traffic(n=8), now=0.25)
        [chunk] = obs.tracer.spans("dataplane.process_batch")
        assert chunk.attributes == {"chunk": 8}
        children = [span.name for span in obs.tracer.children_of(chunk)]
        assert children[0] == "dataplane.digital_mats"
        assert children[-1] == "dataplane.egress"
        assert obs.tracer.active == ()

    def test_energy_attribution_reads_do_not_charge(self):
        # Attribution must be observational: the components' ledger
        # ends the same whether the walk reads it or a spare one.
        attributed, _ = build_processor()
        verdicts = run_switch(attributed)
        unattributed, _ = build_processor()
        charged = unattributed.ledger
        unattributed.ledger = EnergyLedger()
        assert run_switch(unattributed) == verdicts
        assert set(unattributed.energy_by_stage().values()) == {0.0}
        assert charged.total == attributed.ledger.total
        assert charged.events == attributed.ledger.events

    def test_supervisor_called_once_per_chunk(self):
        ticks = []
        processor, obs = build_processor()
        processor.supervise = ticks.append
        processor.process_batch(make_traffic(n=40), now=0.5,
                                chunk_size=16)  # 3 chunks
        processor.process(make_traffic(n=1)[0], now=0.75)
        assert ticks == [0.5, 0.5, 0.5, 0.75]
        assert processor.chunks == 4

    def test_verdicts_unchanged_by_supervision(self):
        reference, _ = build_processor()
        processor, _ = build_processor()
        processor.supervise = lambda now: None
        assert run_switch(processor) == run_switch(reference)
        assert processor.telemetry.snapshot() == \
            reference.telemetry.snapshot()


class TestFrameBursts:
    """A frame burst ticks the supervisor like a batch of its survivors."""

    @staticmethod
    def frames(n):
        return [build_ethernet_frame(build_ipv4_packet(
            "1.2.3.4", "10.1.2.3" if i % 2 else "192.168.7.7"))
            for i in range(n)]

    def test_one_tick_per_match_action_chunk(self):
        ticks = []
        processor, obs = build_processor()
        processor.supervise = ticks.append
        burst = self.frames(10)
        burst[3] = b"junk"  # dropped by the parser, never chunked
        results = processor.process_frames(burst, now=0.5, chunk_size=4)
        assert len(results) == 10
        assert ticks == [0.5, 0.5, 0.5]  # 9 survivors in chunks of 4
        assert processor.chunks == 3
        assert processor.stage_runs["parser"] == 1
        assert "parser" in processor.energy_by_stage()
        assert len(obs.tracer.spans("dataplane.parse")) == 1
        assert len(obs.tracer.spans("dataplane.process_batch")) == 3

    def test_all_malformed_burst_ticks_nothing(self):
        ticks = []
        processor, _ = build_processor()
        processor.supervise = ticks.append
        results = processor.process_frames([b"junk", b"bad"], now=0.5)
        assert [r.verdict.value for r in results] == \
            ["dropped_parse", "dropped_parse"]
        assert ticks == [] and processor.chunks == 0
        assert processor.stage_runs == {"parser": 1}


class TestStageRaises:
    """What a chunk still does when one of its stages raises.

    Driven through ``build_switch`` (energy attribution, tracing and
    supervision all on), with egress admission replaced by a stage
    that charges the ledger and then fails.
    """

    def test_attribution_supervision_and_tracer_survive(self,
                                                        monkeypatch):
        from repro.control import CognitiveNetworkController
        from repro.dataplane import SwitchSpec, build_switch
        from repro.observability import Observability
        from repro.packet import Packet

        class Ticking(CognitiveNetworkController):
            def __init__(self):
                super().__init__()
                self.ticks = []

            def tick(self, now):
                self.ticks.append(now)
                return super().tick(now)

        obs = Observability()
        controller = Ticking()
        processor = build_switch(
            SwitchSpec(n_ports=1, routes=(("10.0.0.0/8", 0),),
                       graceful_degradation=True, supervised=True),
            controller=controller, observability=obs)
        seen = []

        def boom(stage, batch, index, ports, now, emit):
            seen.append(obs.tracer.active[-1].name)
            processor.ledger.charge("compute", 2.5e-12)
            raise RuntimeError("stage failed")

        monkeypatch.setattr(EgressStage, "process_batch", boom)
        packet = Packet(size_bytes=500,
                        fields={"src_ip": "1.2.3.4",
                                "dst_ip": "10.1.2.3", "src_port": 1000,
                                "dst_port": 80, "protocol": 6})
        with pytest.raises(RuntimeError, match="stage failed"):
            processor.process_batch([packet], now=0.75)
        # The raising stage's energy is still booked to it ...
        assert processor.energy_by_stage()["egress"] == 2.5e-12
        assert processor.energy_by_stage()["digital_mats"] > 0
        # ... supervision still ran once for the chunk ...
        assert controller.ticks == [0.75]
        # ... and the stage ran inside its span, which closed with the
        # chunk's span, leaving the tracer's span stack as it was.
        assert seen == ["dataplane.egress"]
        assert obs.tracer.active == ()
        assert "dataplane.egress" in {
            span.name for span in obs.tracer.finished}
