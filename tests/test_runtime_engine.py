"""Unit tests of the generic staged runtime (no dataplane involved).

The runtime package must work with any batch shape and any verdict
vocabulary — these tests drive it with plain lists and strings, which
doubles as a check that nothing in ``repro.runtime`` secretly depends
on dataplane types.
"""

from contextlib import contextmanager

import pytest

from repro.runtime import (
    BaseMiddleware,
    PipelineRuntime,
    StageContext,
    TracingMiddleware,
)
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


class Recorder(BaseMiddleware):
    def __init__(self, log, label):
        self.log = log
        self.label = label
        self.attached = 0

    def on_attach(self, runtime):
        self.attached += 1

    @contextmanager
    def around_chunk(self, ctx):
        self.log.append(f"{self.label}:chunk+")
        try:
            yield
        finally:
            self.log.append(f"{self.label}:chunk-")

    @contextmanager
    def around_stage(self, stage, batch, ctx):
        self.log.append(f"{self.label}:{stage.name}+")
        try:
            yield
        finally:
            self.log.append(f"{self.label}:{stage.name}-")


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
        log = []
        runtime = PipelineRuntime([ListStage(), SinkStage()],
                                  [Recorder(log, "m")])
        run(runtime, [1, 3, 5])  # all odd -> sink never runs
        assert "m:sink+" not in log
        assert runtime.stage_runs == {"evens": 1}

    def test_middleware_nesting_order(self):
        log = []
        runtime = PipelineRuntime(
            [SinkStage()], [Recorder(log, "a"), Recorder(log, "b")])
        run(runtime, [2])
        assert log == ["a:chunk+", "b:chunk+",
                       "a:sink+", "b:sink+",
                       "b:sink-", "a:sink-",
                       "b:chunk-", "a:chunk-"]

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

    def test_on_attach_runs_per_assembly(self):
        recorder = Recorder([], "m")
        runtime = PipelineRuntime([SinkStage()], [recorder])
        assert recorder.attached == 1
        runtime.set_middleware([recorder])
        assert recorder.attached == 2

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
                                  [TracingMiddleware(tracer)])
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
        runtime = PipelineRuntime([ListStage()],
                                  [TracingMiddleware(tracer)])
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

        runtime = PipelineRuntime([Peek()],
                                  [TracingMiddleware(tracer)])
        ctx = StageContext(0.0, lambda *a, **k: None,
                           indices=range(1))
        runtime.run_chunk([1], ctx)
        assert seen == [tracer]
        assert ctx.tracer is None  # restored after the chunk
