"""Unit tests of the staged runtime's one chunk loop.

The runtime package must work with any batch shape and any verdict
vocabulary — the engine tests drive it with plain lists and strings,
which doubles as a check that nothing in ``repro.runtime`` secretly
depends on dataplane types.  The switch tests at the end pin what the
loop does for the Figure 5 switch: energy attribution, supervision
once per chunk and the tracer's publication, also when a stage raises.
"""

import numpy as np
import pytest

from repro.energy.ledger import EnergyLedger
from repro.runtime import PipelineRuntime, StageContext
from repro.observability.tracing import SimClock, Tracer


class ListStage:
    """Keeps even numbers, emits odd ones as 'odd'."""

    name = "evens"
    span_name = "test.evens"

    def span_attributes(self, batch):
        return {"n": len(batch)}

    def process_batch(self, batch, ctx):
        kept, kept_idx = [], []
        for offset, item in enumerate(batch):
            if item % 2:
                ctx.emit(ctx.indices[offset], "odd")
            else:
                kept.append(item)
                kept_idx.append(ctx.indices[offset])
        ctx.columns["index"] = kept_idx
        return kept


class SinkStage:
    name = "sink"

    def process_batch(self, batch, ctx):
        for offset, item in enumerate(batch):
            ctx.emit(ctx.indices[offset], "kept")
        ctx.columns["index"] = []
        return []


def run(runtime, items):
    emitted = {}
    ctx = StageContext(1.5, lambda i, v, port=None, packet=None:
                       emitted.__setitem__(i, v),
                       indices=range(len(items)))
    runtime.run_chunk(list(items), ctx)
    return emitted


class TestEngine:
    def test_stages_compose_and_emit(self):
        runtime = PipelineRuntime([ListStage(), SinkStage()])
        emitted = run(runtime, [1, 2, 3, 4])
        assert emitted == {0: "odd", 1: "kept", 2: "odd", 3: "kept"}

    def test_drained_batch_short_circuits(self):
        runtime = PipelineRuntime([ListStage(), SinkStage()])
        run(runtime, [1, 3, 5])  # all odd -> sink never runs
        assert runtime.stage_runs == {"evens": 1}

    def test_duplicate_stage_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate stage names"):
            PipelineRuntime([SinkStage(), SinkStage()])

    def test_unsized_stage_output_raises_naming_the_stage(self):
        # An unsized batch used to be silently treated as non-empty
        # and walked through the remaining stages; now the drain
        # check raises immediately, naming the producer.
        class Unsized:
            name = "unsized"

            def process_batch(self, batch, ctx):
                return 42  # not a sized sequence, not None

        runtime = PipelineRuntime([Unsized(), SinkStage()])
        with pytest.raises(TypeError,
                           match=r"stage 'unsized' produced an "
                                 r"unsized batch of type int"):
            run(runtime, [2])
        # The bad stage ran; the sink never saw the garbage batch.
        assert runtime.stage_runs == {"unsized": 1}

    def test_unsized_pipeline_input_raises_naming_the_entry(self):
        runtime = PipelineRuntime([SinkStage()])
        ctx = StageContext(0.0, lambda *a, **k: None, indices=[0])
        with pytest.raises(TypeError,
                           match="the pipeline input produced an "
                                 "unsized batch of type object"):
            runtime.run_chunk(object(), ctx)

    def test_none_batch_still_drains_quietly(self):
        class Drainer:
            name = "drainer"

            def process_batch(self, batch, ctx):
                return None

        runtime = PipelineRuntime([Drainer(), SinkStage()])
        run(runtime, [2])
        assert runtime.stage_runs == {"drainer": 1}

    def test_stage_lookup(self):
        stage = SinkStage()
        runtime = PipelineRuntime([stage])
        assert runtime.stage("sink") is stage
        with pytest.raises(KeyError, match="no stage named"):
            runtime.stage("missing")

    def test_supervise_runs_once_per_chunk_after_the_stages(self):
        log = []

        class Logged(SinkStage):
            def process_batch(self, batch, ctx):
                log.append("sink")
                return super().process_batch(batch, ctx)

        runtime = PipelineRuntime([ListStage(), Logged()],
                                  supervise=log.append)
        run(runtime, [2, 4])
        run(runtime, [1])  # drained before the sink: still supervised
        assert log == ["sink", 1.5, 1.5]
        runtime.supervise = None
        run(runtime, [2])
        assert log == ["sink", 1.5, 1.5, "sink"]

    def test_energy_attributed_to_the_spending_stage(self):
        ledger = EnergyLedger()

        class Spender(SinkStage):
            name = "spender"

            def process_batch(self, batch, ctx):
                ledger.charge("compute", 1e-12 * len(batch))
                return super().process_batch(batch, ctx)

        runtime = PipelineRuntime([ListStage(), Spender()],
                                  ledger=ledger)
        assert runtime.energy_attribution() == {}
        run(runtime, [2, 4, 5])
        run(runtime, [6])
        assert runtime.energy_attribution() == {"evens": 0.0,
                                                "spender": 3e-12}
        assert ledger.total == 3e-12

    def test_chunk_and_stage_counters(self):
        runtime = PipelineRuntime([ListStage(), SinkStage()])
        run(runtime, [1, 2])
        run(runtime, [4])
        assert runtime.chunks == 2
        assert runtime.stage_runs == {"evens": 2, "sink": 2}

    def test_stage_subset_override(self):
        runtime = PipelineRuntime([ListStage(), SinkStage()])
        emitted = {}
        ctx = StageContext(0.0, lambda i, v, port=None, packet=None:
                           emitted.__setitem__(i, v),
                           indices=range(3))
        survivors = runtime.run_chunk([1, 2, 3], ctx,
                                      stages=[runtime.stage("evens")])
        assert survivors == [2]
        assert emitted == {0: "odd", 2: "odd"}
        assert ctx.columns["index"] == [1]


class TestContext:
    def test_tracer_defaults_to_none(self):
        ctx = StageContext(0.0, lambda *a, **k: None)
        assert ctx.tracer is None

    def test_entry_attributes_copied(self):
        attrs = {"chunk": 4}
        ctx = StageContext(0.0, lambda *a, **k: None,
                           entry_attributes=attrs)
        attrs["chunk"] = 9
        assert ctx.entry_attributes == {"chunk": 4}


class TestTracingShapes:
    def test_entry_and_stage_spans_nest(self):
        tracer = Tracer(clock=SimClock())
        runtime = PipelineRuntime([ListStage(), SinkStage()],
                                  tracer=tracer)
        emitted = {}
        ctx = StageContext(0.0, lambda i, v, port=None, packet=None:
                           emitted.__setitem__(i, v),
                           indices=range(2), entry_name="test.chunk",
                           entry_attributes={"chunk": 2})
        runtime.run_chunk([2, 4], ctx)
        spans = {span.name: span for span in tracer.finished}
        assert set(spans) == {"test.chunk", "test.evens"}
        assert spans["test.evens"].parent_id == \
            spans["test.chunk"].span_id
        assert spans["test.evens"].attributes == {"n": 2}
        # SinkStage declares no span_name: it runs unspanned.

    def test_entry_name_none_skips_chunk_span(self):
        tracer = Tracer(clock=SimClock())
        runtime = PipelineRuntime([ListStage()], tracer=tracer)
        ctx = StageContext(0.0, lambda *a, **k: None,
                           indices=range(1), entry_name=None)
        runtime.run_chunk([2], ctx)
        assert [span.name for span in tracer.finished] == \
            ["test.evens"]

    def test_tracer_published_on_context_and_restored(self):
        tracer = Tracer(clock=SimClock())
        seen = []

        class Peek:
            name = "peek"

            def process_batch(self, batch, ctx):
                seen.append(ctx.tracer)
                return []

        runtime = PipelineRuntime([Peek()], tracer=tracer)
        ctx = StageContext(0.0, lambda *a, **k: None,
                           indices=range(1))
        runtime.run_chunk([1], ctx)
        assert seen == [tracer]
        assert ctx.tracer is None  # restored after the chunk


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


class TestSwitchRuntime:
    """The loop's inline concerns on the Figure 5 switch."""

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

    def test_energy_attribution_reads_do_not_charge(self):
        # Attribution must be observational: totals with and without
        # a ledger on the runtime are identical.
        attributed, _ = build_processor()
        verdicts = run_switch(attributed)
        unattributed, _ = build_processor()
        unattributed.runtime.ledger = None
        assert run_switch(unattributed) == verdicts
        assert unattributed.energy_by_stage() == {}
        assert unattributed.ledger.total == attributed.ledger.total
        assert unattributed.ledger.events == attributed.ledger.events

    def test_supervisor_called_once_per_chunk(self):
        ticks = []
        processor, obs = build_processor()
        processor.runtime.supervise = ticks.append
        processor.process_batch(make_traffic(n=40), now=0.5,
                                chunk_size=16)  # 3 chunks
        processor.process(make_traffic(n=1)[0], now=0.75)
        assert ticks == [0.5, 0.5, 0.5, 0.75]

    def test_verdicts_unchanged_by_supervision(self):
        reference, _ = build_processor()
        processor, _ = build_processor()
        processor.runtime.supervise = lambda now: None
        assert run_switch(processor) == run_switch(reference)
        assert processor.telemetry.snapshot() == \
            reference.telemetry.snapshot()


class TestStageRaises:
    """What a chunk still does when one of its stages raises.

    Driven through ``build_switch`` (energy attribution, tracing and
    supervision all on), so it pins the switch's runtime however the
    chunk walk is assembled inside.
    """

    def test_attribution_supervision_and_tracer_survive(self):
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

        class Boom:
            name = "boom"
            span_name = "test.boom"

            def __init__(self, ledger):
                self.ledger = ledger
                self.seen = []

            def process_batch(self, batch, ctx):
                self.seen.append((ctx, ctx.tracer))
                self.ledger.charge("compute", 2.5e-12)
                raise RuntimeError("stage failed")

        obs = Observability()
        controller = Ticking()
        processor = build_switch(
            SwitchSpec(n_ports=1, routes=(("10.0.0.0/8", 0),),
                       graceful_degradation=True, supervised=True),
            controller=controller, observability=obs)
        boom = Boom(processor.ledger)
        processor.insert_stage(boom, before="egress")
        packet = Packet(size_bytes=500,
                        fields={"src_ip": "1.2.3.4",
                                "dst_ip": "10.1.2.3", "src_port": 1000,
                                "dst_port": 80, "protocol": 6})
        with pytest.raises(RuntimeError, match="stage failed"):
            processor.process_batch([packet], now=0.75)
        # The raising stage's energy is still booked to it ...
        assert processor.energy_by_stage()["boom"] == 2.5e-12
        assert processor.energy_by_stage()["digital_mats"] > 0
        # ... supervision still ran once for the chunk ...
        assert controller.ticks == [0.75]
        # ... and the chunk's tracer was published, then restored.
        [(ctx, tracer)] = boom.seen
        assert tracer is obs.tracer
        assert ctx.tracer is None
        assert "test.boom" in {span.name for span in obs.tracer.finished}
