"""The analog constant-folding pass (:mod:`repro.core.pcam_fold`).

The fold is only legal when a single scalar evaluation broadcast over
a uniform chunk is *bit-identical* to the batch kernel — so these
tests are mostly about refusals and exact equality: property tests
pin ``evaluate_uniform`` against ``evaluate_batch`` over uniform
columns (including degenerate zero-width ramps and non-canonical
slopes), gating tests pin every documented refusal, and the AQM
section pins the default (folded) admission path indistinguishable
from the ``n``-row batch kernel in decisions, RNG draws, counters,
energy, ``last_pdp``, monitor verdicts and observability output.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pcam_cell import PCAMCell, PCAMParams, prog_pcam
from repro.core.pcam_fold import (
    LOWERING,
    FoldedPCAMPipeline,
    fold_pipeline,
)
from repro.core.pcam_pipeline import PCAMPipeline
from repro.dataplane.pipeline import AnalogPacketProcessor
from repro.netfunc.aqm.derivatives import FeatureExtractor
from repro.netfunc.aqm.pcam_aqm import PCAMAQM, StageSpec
from repro.observability import Observability
from repro.packet import Packet
from repro.robustness import FaultInjector, StuckAtFault
from repro.robustness.degradation import DegradingAQM

P1 = prog_pcam(0.0, 1.0, 2.0, 3.0)
P2 = prog_pcam(-1.0, 0.5, 1.5, 2.5)
P3 = prog_pcam(0.2, 0.9, 1.1, 1.8)


def make_pipeline(composition="product", params=(P1, P2, P3)):
    return PCAMPipeline.from_params(
        {f"s{i}": p for i, p in enumerate(params)},
        composition=composition)


@st.composite
def arbitrary_params(draw):
    """Valid params, canonical slopes NOT required, ramps may be
    degenerate (zero width) — the branches the fold must mirror."""
    m1 = draw(st.floats(-10.0, 10.0, allow_nan=False))
    gap1 = draw(st.floats(0.0, 5.0))
    gap2 = draw(st.floats(0.0, 5.0))
    gap3 = draw(st.floats(0.0, 5.0))
    pmin = draw(st.floats(0.0, 0.5))
    pmax = draw(st.floats(0.5, 1.0))
    sa = draw(st.floats(-20.0, 20.0, allow_nan=False))
    sb = draw(st.floats(-20.0, 20.0, allow_nan=False))
    return PCAMParams(m1=m1, m2=m1 + gap1, m3=m1 + gap1 + gap2,
                      m4=m1 + gap1 + gap2 + gap3, sa=sa, sb=sb,
                      pmax=pmax, pmin=pmin)


class TestGating:
    @pytest.mark.parametrize("composition",
                             ["product", "min", "geometric"])
    def test_sequential_compositions_fold(self, composition):
        folded = fold_pipeline(make_pipeline(composition))
        assert isinstance(folded, FoldedPCAMPipeline)
        assert len(folded) == 3

    def test_mean_composition_refused(self):
        # np.add.reduce pairwise-summation order depends on operand
        # contiguity, so uniform-broadcast equality is unprovable.
        assert fold_pipeline(make_pipeline("mean")) is None

    def test_tracer_or_profiler_still_folds(self):
        # Observing must not change the path: the fold opens the batch
        # kernel's spans and profiler site itself.
        pipeline = make_pipeline()
        pipeline.tracer = object()
        pipeline.profiler = object()
        assert fold_pipeline(pipeline) is not None

    def test_faulted_cell_refused(self):
        pipeline = make_pipeline()
        FaultInjector(StuckAtFault(state="hrs"), cell_fraction=1.0,
                      rng=np.random.default_rng(3)) \
            .inject_pipeline(pipeline)
        assert fold_pipeline(pipeline) is None

    def test_nonlinear_cell_refused(self):
        pipeline = PCAMPipeline({
            "a": PCAMCell(P1),
            "b": PCAMCell(prog_pcam(0.0, 1.0, 2.0, 3.0),
                          nonlinearity="sigmoid")})
        assert fold_pipeline(pipeline) is None

    def test_subclassed_cell_refused(self):
        class DeviceishCell(PCAMCell):
            pass

        pipeline = PCAMPipeline({"a": DeviceishCell(P1)})
        assert fold_pipeline(pipeline) is None

    def test_lowering_reported(self):
        # The hermetic CI container has no numba; either way the
        # module constant and the fold must agree.
        folded = fold_pipeline(make_pipeline())
        assert LOWERING in ("numba", "python")
        assert folded.lowering in ("numba", "python")


class TestExactness:
    @pytest.mark.parametrize("composition",
                             ["product", "min", "geometric"])
    @settings(max_examples=120, deadline=None)
    @given(params=st.lists(arbitrary_params(), min_size=1, max_size=8),
           value=st.floats(-20.0, 20.0, allow_nan=False),
           n=st.integers(1, 64))
    def test_uniform_equals_batch_kernel(self, composition, params,
                                         value, n):
        pipeline = make_pipeline(composition, params)
        folded = fold_pipeline(pipeline)
        values = [value] * len(params)
        batch = {name: np.full(n, value)
                 for name in pipeline.stage_names}
        expected = pipeline.evaluate_batch(batch)
        assert np.all(expected == expected[0])
        got = folded.evaluate_uniform(values, count=n)
        assert got == expected[0]  # bit-exact, no tolerance

    def test_counters_advance_like_the_batch_kernel(self):
        pipeline = make_pipeline()
        folded = fold_pipeline(pipeline)
        folded.evaluate_uniform([0.5, 0.5, 0.5], count=17)
        for name in pipeline.stage_names:
            assert pipeline.stage(name).evaluations == 17

    def test_count_validation_guards_accounting(self):
        cell = PCAMCell(P1)
        with pytest.raises(ValueError, match="count must be >= 0"):
            cell.tally_evaluations(-1)


class TestInvalidation:
    def test_reprogram_invalidates_the_fold(self):
        pipeline = make_pipeline()
        folded = fold_pipeline(pipeline)
        assert folded.matches(pipeline)
        pipeline.program_stage("s1", prog_pcam(0.0, 0.5, 1.0, 1.5))
        assert not folded.matches(pipeline)
        refolded = fold_pipeline(pipeline)
        assert refolded is not None and refolded.matches(pipeline)

    def test_fault_injection_invalidates_the_fold(self):
        pipeline = make_pipeline()
        folded = fold_pipeline(pipeline)
        cell = pipeline.stage("s0")
        fault = StuckAtFault(state="hrs").materialise(
            cell.params, np.random.default_rng(0))
        cell.inject_fault(fault)
        assert not folded.matches(pipeline)
        pipeline.stage("s0").clear_fault()
        # Clearing the fault restores the *intended* params object?
        # No — clear_fault reprograms, so identity may change; the
        # contract is only that a fresh fold succeeds again.
        assert fold_pipeline(pipeline) is not None

    def test_attached_tracer_keeps_the_fold(self):
        pipeline = make_pipeline()
        folded = fold_pipeline(pipeline)
        pipeline.tracer = object()
        pipeline.profiler = object()
        assert folded.matches(pipeline)

    def test_clip_flip_invalidates_the_fold(self):
        # Non-canonical steep ramp: the rail clip changes the output.
        steep = prog_pcam(0.0, 1.0, 2.0, 3.0, sa=3.0, pmin=0.2,
                          pmax=0.8)
        pipeline = make_pipeline(params=(steep,))
        folded = fold_pipeline(pipeline)
        clipped = folded.evaluate_uniform([0.9])
        pipeline.stage("s0").clip_to_rails = False
        assert not folded.matches(pipeline)
        refolded = fold_pipeline(pipeline)
        expected = pipeline.evaluate_batch({"s0": np.full(4, 0.9)})
        assert refolded.evaluate_uniform([0.9], count=4) == expected[0]
        assert expected[0] != clipped

    def test_nonlinearity_flip_invalidates_the_fold(self):
        pipeline = make_pipeline()
        folded = fold_pipeline(pipeline)
        pipeline.stage("s1").nonlinearity = "sigmoid"
        assert not folded.matches(pipeline)
        assert fold_pipeline(pipeline) is None

    def test_different_pipeline_never_matches(self):
        folded = fold_pipeline(make_pipeline())
        assert not folded.matches(make_pipeline())


class FakeQueue:
    def __init__(self, packets=0, bytes_=0, rate=40e6, sojourn=0.0):
        self.backlog_packets = packets
        self.backlog_bytes = bytes_
        self.capacity_packets = 2000
        self.service_rate_bps = rate
        self.last_sojourn_s = sojourn


def congested_queue():
    return FakeQueue(packets=600, bytes_=600 * 1200, sojourn=0.05)


class KernelTwin(PCAMAQM):
    """``on_enqueue_batch`` spelled out over the ``n``-row batch kernel.

    The reference the default (folded) path must reproduce: the same
    chunk-start features broadcast with ``np.full`` through
    ``drop_probabilities`` and judged by ``drop_decisions``.
    """

    def on_enqueue_batch(self, packets, queue, now):
        n = len(packets)
        if n == 0 or queue.backlog_packets <= 2:
            return np.zeros(n, dtype=bool)
        raw = self._raw_features(queue, now)
        priorities = getattr(packets, "priorities", None)
        if priorities is None:
            priorities = np.array([packet.priority for packet in packets])
        features = {name: np.full(n, raw[name])
                    for name in self.pipeline.stage_names}
        pdps = self.drop_probabilities(features, priorities=priorities)
        self._maybe_adapt(now)
        return np.array(self.drop_decisions(pdps), dtype=bool)


def aqm_pair(seed=7, **kwargs):
    """Identically-seeded AQMs: the default path and the kernel twin."""
    return (PCAMAQM(rng=np.random.default_rng(seed), **kwargs),
            KernelTwin(rng=np.random.default_rng(seed), **kwargs))


def assert_same_state(folded, kernel):
    assert folded.evaluations == kernel.evaluations
    assert folded.last_pdp == kernel.last_pdp
    assert folded.ledger.total == kernel.ledger.total
    assert folded.threshold_shift == kernel.threshold_shift
    for name in folded.pipeline.stage_names:
        assert folded.pipeline.stage(name).evaluations == \
            kernel.pipeline.stage(name).evaluations


def chunk(n, priority):
    return [Packet(size_bytes=900, priority=priority) for _ in range(n)]


class TestFoldedAdmission:
    def test_admission_indistinguishable_from_batch_path(self):
        folded, kernel = aqm_pair()
        for step in range(30):
            now = 0.01 * (step + 1)
            drops_a = folded.on_enqueue_batch(
                chunk(16, step % 2), congested_queue(), now)
            drops_b = kernel.on_enqueue_batch(
                chunk(16, step % 2), congested_queue(), now)
            assert np.array_equal(drops_a, drops_b), step
        assert folded.evaluations > 0
        assert folded._folded is not None  # the fold really ran
        assert_same_state(folded, kernel)

    def test_monitor_sees_one_row_per_evaluation(self):
        folded, kernel = aqm_pair(seed=11)
        seen, reference = [], []
        folded.output_monitor = lambda batch, pdps: seen.append(
            ({name: column.tolist() for name, column in batch.items()},
             pdps.tolist()))
        kernel.output_monitor = lambda batch, pdps: reference.append(
            ({name: column.tolist() for name, column in batch.items()},
             pdps.tolist()))
        drops_a = folded.on_enqueue_batch(chunk(8, 1), congested_queue(),
                                          0.02)
        drops_b = kernel.on_enqueue_batch(chunk(8, 1), congested_queue(),
                                          0.02)
        assert np.array_equal(drops_a, drops_b)
        # One row: the first of the kernel's eight identical rows.
        assert len(seen) == len(reference) == 1
        batch, pdps = seen[0]
        assert pdps == reference[0][1][:1]
        assert batch == {name: column[:1]
                         for name, column in reference[0][0].items()}

    def test_fault_injection_demotes_mid_stream(self):
        folded, kernel = aqm_pair(seed=13)
        for step in range(6):
            if step == 3:
                for aqm in (folded, kernel):
                    FaultInjector(StuckAtFault(state="hrs"),
                                  cell_fraction=1.0,
                                  rng=np.random.default_rng(99)) \
                        .inject_aqm(aqm)
            now = 0.02 * (step + 1)
            drops_a = folded.on_enqueue_batch(chunk(12, 1),
                                              congested_queue(), now)
            drops_b = kernel.on_enqueue_batch(chunk(12, 1),
                                              congested_queue(), now)
            assert np.array_equal(drops_a, drops_b), step
            assert_same_state(folded, kernel)
            # The faulted chunk itself ran on the batch kernel.
            assert (folded._folded is None) == (step >= 3), step

    @pytest.mark.parametrize("flip", ["clip_to_rails", "nonlinearity"])
    def test_shape_flip_between_chunks_demotes(self, flip):
        # One steep (non-canonical) sojourn stage, so the rail clip
        # changes the PDP; the sigmoid ramp needs canonical slopes.
        sojourn = FeatureExtractor.NAMES.sojourn[0]
        params = (prog_pcam(0.01, 0.03, 0.16, 0.19, sa=90.0,
                            pmin=0.2, pmax=0.8)
                  if flip == "clip_to_rails"
                  else prog_pcam(0.01, 0.03, 0.16, 0.19))
        programs = {sojourn: StageSpec(params, 0.0, 0.2)}
        folded, kernel = aqm_pair(seed=17, stage_programs=programs,
                                  adaptation=False)
        queue = FakeQueue(packets=600, bytes_=1000, sojourn=0.025)
        pdps = []
        for step in range(4):
            if step == 2:
                for aqm in (folded, kernel):
                    cell = aqm.pipeline.stage(sojourn)
                    if flip == "clip_to_rails":
                        cell.clip_to_rails = False
                    else:
                        cell.nonlinearity = "sigmoid"
            stale = folded._folded
            now = 0.01 * (step + 1)
            drops_a = folded.on_enqueue_batch(chunk(64, 1), queue, now)
            drops_b = kernel.on_enqueue_batch(chunk(64, 1), queue, now)
            assert np.array_equal(drops_a, drops_b), step
            assert_same_state(folded, kernel)
            pdps.append(folded.last_pdp)
            if step == 2:
                assert folded._folded is not stale
        # The flip changed the analog response, so a stale fold would
        # have been caught by the PDP comparison above.
        assert pdps[2] != pdps[1]
        assert (folded._folded is None) == (flip == "nonlinearity")


@settings(max_examples=25, deadline=None)
@given(size=st.sampled_from([1, 7, 256]),
       priorities=st.lists(st.sampled_from([0, 1]), min_size=12,
                           max_size=12),
       backlogs=st.lists(st.integers(0, 900), min_size=12, max_size=12),
       sojourns=st.lists(st.floats(0.0, 0.2), min_size=12, max_size=12),
       retarget_at=st.integers(0, 11),
       fault_at=st.integers(0, 12),
       degrading=st.booleans())
def test_default_path_matches_the_batch_kernel_twin(
        size, priorities, backlogs, sojourns, retarget_at, fault_at,
        degrading):
    """Decisions, RNG, counters and monitor verdicts equal the kernel's.

    Chunk sizes 1/7/256, both priorities, a ``retarget`` between
    chunks (the fold must re-fold, not go stale), a mid-stream fault
    (the faulted chunk demotes) and, when ``degrading``, a
    ``DegradingAQM`` whose shadow checks trip at the same evaluation
    with the same deviation.
    """
    folded, kernel = aqm_pair(seed=23)
    tables = [folded, kernel]
    if degrading:
        tables = [DegradingAQM(aqm, check_interval=2, trip_after=2)
                  for aqm in tables]
    for step, (priority, backlog, sojourn) in enumerate(
            zip(priorities, backlogs, sojourns)):
        now = 0.01 * (step + 1)
        if step == retarget_at:
            for aqm in (folded, kernel):
                aqm.retarget(0.010 + 0.002 * step)
        if step == fault_at:
            for aqm in (folded, kernel):
                FaultInjector(StuckAtFault(state="lrs"),
                              cell_fraction=0.5,
                              rng=np.random.default_rng(5)) \
                    .inject_aqm(aqm)
        queue = FakeQueue(packets=backlog, bytes_=backlog * 1200,
                          sojourn=sojourn)
        verdicts = [table.on_enqueue_batch(chunk(size, priority), queue,
                                           now) for table in tables]
        assert np.array_equal(*verdicts), step
        for table in tables:
            table.on_dequeue_batch(np.array([sojourn]), queue, now)
        assert_same_state(folded, kernel)
        if degrading:
            a, b = tables
            assert (a.mode, a.fallback_events, a.last_deviation,
                    a.shadow.checks) == \
                (b.mode, b.fallback_events, b.last_deviation,
                 b.shadow.checks), step
    # The RNG streams advanced identically.
    assert folded._rng.random() == kernel._rng.random()


def observed_switch(observability, aqm_class):
    processor = AnalogPacketProcessor(
        n_ports=2, observability=observability,
        aqm_factory=lambda: aqm_class(rng=np.random.default_rng(3)))
    processor.add_route("10.0.0.0/8", port=0)
    processor.add_route("192.168.0.0/16", port=1)
    return processor


def switch_traffic(n=600):
    rng = np.random.default_rng(8)
    return [Packet(size_bytes=int(rng.integers(64, 1500)),
                   priority=int(rng.random() < 0.3),
                   fields={"src_ip": "1.2.3.4",
                           "dst_ip": ("10.1.1.1", "192.168.1.1")[
                               int(rng.integers(2))],
                           "protocol": 6,
                           "src_port": int(rng.integers(1024, 1040)),
                           "dst_port": 80})
            for _ in range(n)]


def test_observing_does_not_change_the_admission_path():
    """Observed == unobserved, and the spans/samples are the kernel's."""
    runs = {}
    for label, obs, aqm_class in (
            ("plain", None, PCAMAQM),
            ("observed", Observability(), PCAMAQM),
            ("kernel", Observability(), KernelTwin)):
        processor = observed_switch(obs, aqm_class)
        results = processor.process_batch(switch_traffic(), now=0.5,
                                          chunk_size=64)
        runs[label] = (processor, obs, results)
    reference = runs["plain"]
    for label in ("observed", "kernel"):
        processor, _, results = runs[label]
        assert [r.verdict for r in results] == \
            [r.verdict for r in reference[2]], label
        assert processor.energy_breakdown() == \
            reference[0].energy_breakdown(), label
        assert processor.verdict_counts == reference[0].verdict_counts
    aqm = runs["observed"][0].traffic_manager.aqm(0)
    assert aqm._folded is not None and aqm._folded.matches(aqm.pipeline)
    observed, kernel = runs["observed"][1], runs["kernel"][1]

    def span_counts(obs):
        counts = {}
        for span in obs.tracer.finished:
            counts[span.name] = counts.get(span.name, 0) + 1
        return counts

    assert observed.tracer.started == kernel.tracer.started
    assert span_counts(observed) == span_counts(kernel)
    assert span_counts(observed)["pcam.evaluate_batch"] > 0
    batches = [[span.attributes for span in obs.tracer.spans(
        "pcam.evaluate_batch")] for obs in (observed, kernel)]
    assert batches[0] == batches[1]
    samples = [obs.profiler.site_histogram("pcam.evaluate_batch").count
               for obs in (observed, kernel)]
    assert samples[0] == samples[1] > 0
