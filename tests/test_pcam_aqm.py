"""The pCAM-based analog AQM (the paper's proof of concept)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane.pipeline import AnalogPacketProcessor
from repro.energy.ledger import EnergyLedger
from repro.netfunc.aqm.base import TailDropAQM
from repro.netfunc.aqm.pcam_aqm import (
    PCAMAQM,
    StageSpec,
    default_stage_programs,
)
from repro.core.pcam_cell import prog_pcam
from repro.netfunc.aqm.derivatives import FeatureExtractor
from repro.observability import Observability
from repro.packet import Packet
from repro.robustness import FaultInjector, StuckAtFault
from repro.robustness.degradation import DegradingAQM
from repro.simnet.topology import DumbbellExperiment, overload_profile


class FakeQueue:
    def __init__(self, packets=0, bytes_=0, rate=40e6, sojourn=0.0):
        self.backlog_packets = packets
        self.backlog_bytes = bytes_
        self.capacity_packets = 2000
        self.service_rate_bps = rate
        self.last_sojourn_s = sojourn


def make_aqm(**kwargs):
    kwargs.setdefault("rng", np.random.default_rng(7))
    return PCAMAQM(**kwargs)


class TestStagePrograms:
    def test_default_has_eight_stages(self):
        programs = default_stage_programs()
        assert len(programs) == 8
        assert "sojourn_time" in programs
        assert "d3_buffer" in programs

    def test_order_limits_stage_count(self):
        assert len(default_stage_programs(order=0)) == 2
        assert len(default_stage_programs(order=1)) == 4

    def test_without_buffer_family(self):
        programs = default_stage_programs(use_buffer=False)
        assert len(programs) == 4
        assert all("buffer" not in name for name in programs)

    def test_band_encoded_in_delay_stage(self):
        programs = default_stage_programs(target_delay_s=0.02,
                                          max_deviation_s=0.01)
        delay = programs["sojourn_time"].params
        assert delay.m1 == pytest.approx(0.01)
        assert delay.m2 == pytest.approx(0.03)

    def test_validation(self):
        with pytest.raises(ValueError):
            default_stage_programs(target_delay_s=0.0)
        with pytest.raises(ValueError):
            default_stage_programs(max_deviation_s=0.05,
                                   target_delay_s=0.02)
        with pytest.raises(ValueError):
            default_stage_programs(order=5)

    def test_stage_spec_validation(self):
        with pytest.raises(ValueError):
            StageSpec(params=prog_pcam(0, 1, 2, 3),
                      feature_lo=0.5, feature_hi=2.0)
        with pytest.raises(ValueError):
            StageSpec(params=prog_pcam(0, 1, 2, 3),
                      feature_lo=3.0, feature_hi=1.0)


class TestPDP:
    def test_empty_queue_zero_pdp(self):
        aqm = make_aqm()
        assert aqm.pdp(FakeQueue(), 0.0) == pytest.approx(0.0)

    def test_pdp_saturates_under_heavy_backlog(self):
        aqm = make_aqm(adaptation=False)
        queue = FakeQueue(packets=2000, bytes_=2_000_000, sojourn=0.5)
        pdp = None
        for step in range(50):
            pdp = aqm.pdp(queue, step * 0.01)
        assert pdp > 0.9

    def test_pdp_monotone_in_backlog_levels(self):
        aqm = make_aqm(adaptation=False)
        levels = []
        for backlog_bytes in (0, 60_000, 120_000, 500_000):
            aqm.reset()
            queue = FakeQueue(bytes_=backlog_bytes)
            for step in range(30):
                value = aqm.pdp(queue, step * 0.01)
            levels.append(value)
        assert levels == sorted(levels)
        assert levels[0] == pytest.approx(0.0)
        assert levels[-1] > 0.9

    def test_improving_queue_suppresses_drops(self):
        # Veto stages: a rapidly draining queue lowers the PDP below
        # what the same instantaneous backlog would otherwise give.
        aqm_steady = make_aqm(adaptation=False)
        aqm_improving = make_aqm(adaptation=False)
        for step in range(40):
            t = step * 0.005
            aqm_steady.pdp(FakeQueue(bytes_=150_000), t)
            declining = max(0, 400_000 - step * 40_000)
            aqm_improving.pdp(FakeQueue(bytes_=declining), t)
        steady = aqm_steady.pdp(FakeQueue(bytes_=150_000), 0.2)
        improving = aqm_improving.pdp(FakeQueue(bytes_=150_000), 0.2)
        assert improving < steady

    def test_energy_charged_per_evaluation(self):
        ledger = EnergyLedger()
        aqm = make_aqm(ledger=ledger, energy_per_cell_j=1e-17)
        aqm.pdp(FakeQueue(), 0.0)
        # 8 stages x 2 cells x 1e-17 J.
        assert ledger.account("pcam_aqm.search") == pytest.approx(1.6e-16)
        assert aqm.evaluations == 1


class TestDropBehaviour:
    def test_tiny_backlog_never_dropped(self):
        aqm = make_aqm()
        assert not aqm.on_enqueue(Packet(), FakeQueue(packets=1), 0.0)

    def test_heavy_backlog_drops_most_arrivals(self):
        # Empty priority map: no class discount obscures the raw PDP.
        aqm = make_aqm(adaptation=False, priority_weights={})
        queue = FakeQueue(packets=1000, bytes_=1_000_000, sojourn=0.4)
        outcomes = [aqm.on_enqueue(Packet(), queue, step * 0.01)
                    for step in range(100)]
        assert np.mean(outcomes[20:]) > 0.8

    def test_high_priority_dropped_less(self):
        weights = {0: 0.25, 1: 1.0}
        results = {}
        for priority in (0, 1):
            aqm = make_aqm(adaptation=False, priority_weights=weights,
                           rng=np.random.default_rng(3))
            queue = FakeQueue(packets=500, bytes_=400_000, sojourn=0.03)
            outcomes = [aqm.on_enqueue(Packet(priority=priority),
                                       queue, step * 0.01)
                        for step in range(300)]
            results[priority] = np.mean(outcomes[50:])
        assert results[0] < results[1]


class TestAdaptation:
    def test_update_pcam_fires_when_delay_out_of_band(self):
        aqm = make_aqm(adaptation=True, adaptation_interval_s=0.01)
        queue = FakeQueue(packets=500, bytes_=500_000)
        for step in range(100):
            now = step * 0.01
            aqm.on_dequeue(Packet(), queue, now, 0.08)  # way over band
            aqm.on_enqueue(Packet(), queue, now)
        assert aqm.adaptations > 0
        assert aqm.threshold_shift < 1.0

    def test_no_adaptation_inside_band(self):
        aqm = make_aqm(adaptation=True, adaptation_interval_s=0.01)
        queue = FakeQueue(packets=50, bytes_=50_000)
        for step in range(50):
            now = step * 0.01
            aqm.on_dequeue(Packet(), queue, now, 0.02)  # on target
            aqm.on_enqueue(Packet(), queue, now)
        assert aqm.adaptations == 0
        assert aqm.threshold_shift == 1.0

    def test_shift_relaxes_back_when_delay_low(self):
        aqm = make_aqm(adaptation=True, adaptation_interval_s=0.01)
        queue = FakeQueue(packets=500, bytes_=500_000)
        for step in range(60):
            now = step * 0.01
            aqm.on_dequeue(Packet(), queue, now, 0.09)
            aqm.on_enqueue(Packet(), queue, now)
        tightened = aqm.threshold_shift
        quiet = FakeQueue(packets=5, bytes_=5_000)
        for step in range(600):
            now = 1.0 + step * 0.01
            aqm.on_dequeue(Packet(), quiet, now, 0.002)
            aqm.on_enqueue(Packet(), quiet, now)
        assert aqm.threshold_shift > tightened

    def test_reset_restores_base_program(self):
        aqm = make_aqm(adaptation=True, adaptation_interval_s=0.01)
        queue = FakeQueue(packets=500, bytes_=500_000)
        for step in range(60):
            now = step * 0.01
            aqm.on_dequeue(Packet(), queue, now, 0.09)
            aqm.on_enqueue(Packet(), queue, now)
        aqm.reset()
        assert aqm.threshold_shift == 1.0
        assert aqm.adaptations == 0


class TestFigure8Behaviour:
    def test_holds_delay_inside_programmed_band(self):
        experiment = DumbbellExperiment(
            n_flows=6, load=0.9, service_rate_bps=40e6,
            capacity_packets=1500, duration_s=6.0,
            rate_fn=overload_profile(1.5, 5.0, 1.6), seed=3)
        aqm = make_aqm()
        managed = experiment.run(aqm).recorder.summary()
        unmanaged = experiment.run(TailDropAQM()).recorder.summary()
        # Shape of Figure 8: unmanaged delay explodes, managed stays
        # within the programmed 20 +- 10 ms objective.
        assert unmanaged.mean_delay_s > 0.1
        assert managed.mean_delay_s < 0.03
        assert managed.p95_delay_s < 0.035

    def test_composition_choice_respected(self):
        aqm = make_aqm(composition="min")
        assert aqm.pipeline.composition == "min"

    def test_order_zero_uses_only_level_features(self):
        aqm = make_aqm(order=0)
        assert aqm.pipeline.stage_names == ("sojourn_time",
                                            "buffer_size")


# ----------------------------------------------------------------------
# Uniform admission: one feature column per chunk, against n rows
# ----------------------------------------------------------------------
def congested_queue():
    return FakeQueue(packets=600, bytes_=600 * 1200, sojourn=0.05)


class KernelTwin(PCAMAQM):
    """``on_enqueue_batch`` spelled out over ``n`` explicit rows.

    The reference the default (uniform) admission must reproduce: the
    same chunk-start features broadcast with ``np.full`` through
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
    """Identically-seeded AQMs: the default path and the n-row twin."""
    return (PCAMAQM(rng=np.random.default_rng(seed), **kwargs),
            KernelTwin(rng=np.random.default_rng(seed), **kwargs))


def assert_same_state(uniform, kernel):
    assert uniform.evaluations == kernel.evaluations
    assert uniform.last_pdp == kernel.last_pdp
    assert uniform.ledger.total == kernel.ledger.total
    assert uniform.threshold_shift == kernel.threshold_shift
    for name in uniform.pipeline.stage_names:
        assert uniform.pipeline.stage(name).evaluations == \
            kernel.pipeline.stage(name).evaluations


def chunk(n, priority):
    return [Packet(size_bytes=900, priority=priority) for _ in range(n)]


class TestUniformAdmission:
    def test_admission_indistinguishable_from_n_row_path(self):
        uniform, kernel = aqm_pair()
        for step in range(30):
            now = 0.01 * (step + 1)
            drops_a = uniform.on_enqueue_batch(
                chunk(16, step % 2), congested_queue(), now)
            drops_b = kernel.on_enqueue_batch(
                chunk(16, step % 2), congested_queue(), now)
            assert np.array_equal(drops_a, drops_b), step
        assert uniform.evaluations > 0
        assert_same_state(uniform, kernel)

    def test_monitor_sees_one_row_per_evaluation(self):
        uniform, kernel = aqm_pair(seed=11)
        seen, reference = [], []
        uniform.output_monitor = lambda batch, pdps: seen.append(
            ({name: column.tolist() for name, column in batch.items()},
             pdps.tolist()))
        kernel.output_monitor = lambda batch, pdps: reference.append(
            ({name: column.tolist() for name, column in batch.items()},
             pdps.tolist()))
        drops_a = uniform.on_enqueue_batch(chunk(8, 1), congested_queue(),
                                          0.02)
        drops_b = kernel.on_enqueue_batch(chunk(8, 1), congested_queue(),
                                          0.02)
        assert np.array_equal(drops_a, drops_b)
        # One feature row (the first of the kernel's eight identical
        # rows) and one PDP per packet.
        assert len(seen) == len(reference) == 1
        batch, pdps = seen[0]
        assert pdps == reference[0][1]
        assert batch == {name: column[:1]
                         for name, column in reference[0][0].items()}

    def test_fault_injection_mid_stream(self):
        uniform, kernel = aqm_pair(seed=13)
        for step in range(6):
            if step == 3:
                for aqm in (uniform, kernel):
                    FaultInjector(StuckAtFault(state="hrs"),
                                  cell_fraction=1.0,
                                  rng=np.random.default_rng(99)) \
                        .inject_aqm(aqm)
            now = 0.02 * (step + 1)
            drops_a = uniform.on_enqueue_batch(chunk(12, 1),
                                              congested_queue(), now)
            drops_b = kernel.on_enqueue_batch(chunk(12, 1),
                                              congested_queue(), now)
            assert np.array_equal(drops_a, drops_b), step
            assert_same_state(uniform, kernel)

    @pytest.mark.parametrize("flip", ["clip_to_rails", "nonlinearity"])
    def test_shape_flip_between_chunks(self, flip):
        # One steep (non-canonical) sojourn stage, so the rail clip
        # changes the PDP; the sigmoid ramp needs canonical slopes.
        sojourn = FeatureExtractor.NAMES.sojourn[0]
        params = (prog_pcam(0.01, 0.03, 0.16, 0.19, sa=90.0,
                            pmin=0.2, pmax=0.8)
                  if flip == "clip_to_rails"
                  else prog_pcam(0.01, 0.03, 0.16, 0.19))
        programs = {sojourn: StageSpec(params, 0.0, 0.2)}
        uniform, kernel = aqm_pair(seed=17, stage_programs=programs,
                                  adaptation=False)
        queue = FakeQueue(packets=600, bytes_=1000, sojourn=0.025)
        pdps = []
        for step in range(4):
            if step == 2:
                for aqm in (uniform, kernel):
                    cell = aqm.pipeline.stage(sojourn)
                    if flip == "clip_to_rails":
                        cell.clip_to_rails = False
                    else:
                        cell.nonlinearity = "sigmoid"
            now = 0.01 * (step + 1)
            drops_a = uniform.on_enqueue_batch(chunk(64, 1), queue, now)
            drops_b = kernel.on_enqueue_batch(chunk(64, 1), queue, now)
            assert np.array_equal(drops_a, drops_b), step
            assert_same_state(uniform, kernel)
            pdps.append(uniform.last_pdp)
        # The flip changed the analog response, so stale kernel
        # constants would have been caught by the PDP comparison above.
        assert pdps[2] != pdps[1]


@settings(max_examples=25, deadline=None)
@given(size=st.sampled_from([1, 7, 256]),
       priorities=st.lists(st.sampled_from([0, 1]), min_size=12,
                           max_size=12),
       backlogs=st.lists(st.integers(0, 900), min_size=12, max_size=12),
       sojourns=st.lists(st.floats(0.0, 0.2), min_size=12, max_size=12),
       retarget_at=st.integers(0, 11),
       fault_at=st.integers(0, 12),
       degrading=st.booleans())
def test_default_path_matches_the_n_row_twin(
        size, priorities, backlogs, sojourns, retarget_at, fault_at,
        degrading):
    """Decisions, RNG, counters and monitor verdicts equal the twin's.

    Chunk sizes 1/7/256, both priorities, a ``retarget`` between
    chunks (the kernel constants must not go stale), a mid-stream
    fault and, when ``degrading``, a ``DegradingAQM`` whose shadow
    checks trip at the same evaluation with the same deviation.
    """
    uniform, kernel = aqm_pair(seed=23)
    tables = [uniform, kernel]
    if degrading:
        tables = [DegradingAQM(aqm, check_interval=2, trip_after=2)
                  for aqm in tables]
    for step, (priority, backlog, sojourn) in enumerate(
            zip(priorities, backlogs, sojourns)):
        now = 0.01 * (step + 1)
        if step == retarget_at:
            for aqm in (uniform, kernel):
                aqm.retarget(0.010 + 0.002 * step)
        if step == fault_at:
            for aqm in (uniform, kernel):
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
            table.on_dequeue_batch([(sojourn, 1)], queue, now)
        assert_same_state(uniform, kernel)
        if degrading:
            a, b = tables
            assert (a.mode, a.fallback_events, a.last_deviation,
                    a.shadow.checks) == \
                (b.mode, b.fallback_events, b.last_deviation,
                 b.shadow.checks), step
    # The RNG streams advanced identically.
    assert uniform._rng.random() == kernel._rng.random()


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
    """Observed == unobserved, and the spans/samples are the twin's."""
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
