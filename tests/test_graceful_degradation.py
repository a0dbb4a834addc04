"""Graceful degradation: shadow checks, fallback flip, retry backoff.

Covers the satellite requirement directly: a stuck-at fault above
threshold must flip the table to the digital (CoDel) path and the
fallback event must land in telemetry — plus the retry/backoff and
recovery choreography around it, both self-driven and driven by the
cognitive controller's tick.
"""

import numpy as np
import pytest

from repro.control import CognitiveNetworkController
from repro.dataplane.telemetry import TelemetryCollector
from repro.dataplane.traffic_manager import CognitiveTrafficManager
from repro.netfunc.aqm.codel import CoDelAqm
from repro.netfunc.aqm.pcam_aqm import PCAMAQM
from repro.packet import Packet
from repro.robustness.degradation import DegradingAQM, ShadowOracle
from repro.robustness.injector import FaultInjector
from repro.robustness.models import (
    ConductanceDrift,
    StuckAtFault,
    TransientReadNoise,
)
from repro.robustness.oracle import DifferentialOracle


def make_degrader(**kwargs):
    aqm = PCAMAQM(adaptation=False, rng=np.random.default_rng(0))
    telemetry = TelemetryCollector()
    kwargs.setdefault("pdp_envelope", 0.05)
    kwargs.setdefault("check_interval", 1)
    kwargs.setdefault("trip_after", 1)
    kwargs.setdefault("backoff_initial_s", 1.0)
    kwargs.setdefault("backoff_max_s", 8.0)
    degrader = DegradingAQM(aqm, telemetry=telemetry, **kwargs)
    return aqm, degrader, telemetry


def inject(aqm, model, seed=1):
    FaultInjector(model, rng=np.random.default_rng(seed)).inject_aqm(aqm)


def evaluate(aqm, n=2):
    """One pipeline pass (fires the shadow monitor) at mid-band delay."""
    features = {}
    for name in aqm.pipeline.stage_names:
        # Zeroth-order stages mid-ramp, derivative stages at rest.
        value = (aqm.target_delay_s
                 if name in ("sojourn_time", "buffer_size") else 0.0)
        features[name] = np.full(n, value)
    return aqm.drop_probabilities(features)


# ----------------------------------------------------------------------
# Shadow oracle
# ----------------------------------------------------------------------
class TestShadowOracle:
    def test_matches_clean_pipeline_exactly(self):
        aqm = PCAMAQM(adaptation=False)
        shadow = ShadowOracle(aqm.pipeline)
        batch = {name: np.linspace(-1.5, 3.5, 16)
                 for name in aqm.pipeline.stage_names}
        np.testing.assert_array_equal(
            shadow.evaluate(batch), aqm.pipeline.evaluate_batch(batch))
        assert shadow.deviation(batch,
                                aqm.pipeline.evaluate_batch(batch)) == 0.0
        assert shadow.checks == 2

    def test_sees_through_injected_faults(self):
        aqm = PCAMAQM(adaptation=False)
        shadow = ShadowOracle(aqm.pipeline)
        batch = {name: np.full(4, 0.5)
                 for name in aqm.pipeline.stage_names}
        clean = shadow.evaluate(batch)
        inject(aqm, StuckAtFault(state="lrs"))
        np.testing.assert_array_equal(shadow.evaluate(batch), clean)

    def test_tracks_reprogrammed_intent(self):
        aqm = PCAMAQM(adaptation=False)
        shadow = ShadowOracle(aqm.pipeline)
        batch = {name: np.full(4, -1.2)  # on the delay-stage ramp
                 for name in aqm.pipeline.stage_names}
        before = shadow.evaluate(batch)
        # A genuine intent change, not a fault (band shape changes).
        aqm.retarget(0.040, max_deviation_s=0.005)
        after = shadow.evaluate(batch)
        assert not np.array_equal(before, after)
        np.testing.assert_array_equal(after,
                                      aqm.pipeline.evaluate_batch(batch))

    def test_equals_the_differential_oracles_reference(self):
        aqm = PCAMAQM(adaptation=False)
        inject(aqm, TransientReadNoise(sigma=0.05))
        shadow = ShadowOracle(aqm.pipeline)
        batch = {name: np.linspace(-1.8, 3.8, 23)
                 for name in aqm.pipeline.stage_names}
        reference = DifferentialOracle.from_intended(aqm.pipeline).reference
        clean = reference.evaluate_batch(batch)
        np.testing.assert_array_equal(shadow.evaluate(batch), clean)
        assert not np.array_equal(aqm.pipeline.evaluate_batch(batch), clean)


# ----------------------------------------------------------------------
# Fallback flip
# ----------------------------------------------------------------------
class TestFallbackFlip:
    def test_stuck_fault_flips_to_codel_and_telemetry_records_it(self):
        aqm, degrader, telemetry = make_degrader()
        inject(aqm, StuckAtFault(state="lrs"))
        assert degrader.mode == "analog"
        evaluate(aqm)
        assert degrader.degraded
        assert degrader.mode == "fallback"
        assert isinstance(degrader.fallback, CoDelAqm)
        assert degrader.fallback_events == 1
        assert telemetry.event_count("pcam_aqm.fallback_engaged") == 1
        assert telemetry.gauge("pcam_aqm.degraded") == 1.0
        assert telemetry.gauge("pcam_aqm.shadow_deviation") \
            == degrader.last_deviation > 0.05

    def test_degraded_table_serves_from_digital_path(self):
        aqm, degrader, _ = make_degrader()
        inject(aqm, StuckAtFault(state="lrs"))
        evaluate(aqm)
        manager = CognitiveTrafficManager(
            1, aqm_factory=lambda: degrader, port_rate_bps=1e7)
        assert manager.degraded_ports == (0,)
        searches_before = aqm.evaluations
        packets = [Packet(created_at=0.0) for _ in range(32)]
        manager.enqueue_batch(0, packets, now=0.0)
        # The analog pipeline was never consulted while degraded.
        assert aqm.evaluations == searches_before

    def test_healthy_table_never_trips(self):
        aqm, degrader, telemetry = make_degrader()
        for _ in range(10):
            evaluate(aqm)
        assert not degrader.degraded
        assert degrader.fallback_events == 0
        assert telemetry.event_count("pcam_aqm.fallback_engaged") == 0
        assert telemetry.gauge("pcam_aqm.degraded") == 0.0

    def test_trip_requires_consecutive_violations(self):
        aqm, degrader, _ = make_degrader(trip_after=3)
        inject(aqm, StuckAtFault(state="lrs"))
        evaluate(aqm)
        evaluate(aqm)
        assert not degrader.degraded
        evaluate(aqm)
        assert degrader.degraded

    def test_constructor_validation(self):
        aqm = PCAMAQM(adaptation=False)
        with pytest.raises(ValueError):
            DegradingAQM(aqm, pdp_envelope=0.0)
        with pytest.raises(ValueError):
            DegradingAQM(aqm, check_interval=0)
        with pytest.raises(ValueError):
            DegradingAQM(aqm, trip_after=0)
        with pytest.raises(ValueError):
            DegradingAQM(aqm, backoff_initial_s=2.0, backoff_max_s=1.0)


# ----------------------------------------------------------------------
# Retry / reprogram backoff and recovery
# ----------------------------------------------------------------------
class TestRetryAndRecovery:
    def test_retry_honours_backoff_window(self):
        aqm, degrader, telemetry = make_degrader()
        inject(aqm, StuckAtFault(state="lrs"))
        degrader.on_enqueue_batch([Packet()], _IdleView(), now=10.0)
        evaluate(aqm)  # trips at _now = 10.0
        assert degrader.next_retry_s == pytest.approx(11.0)
        assert not degrader.maybe_retry(now=10.5)
        assert degrader.maybe_retry(now=11.0)
        assert degrader.retries == 1
        assert telemetry.event_count("pcam_aqm.retry") == 1

    def test_persistent_fault_doubles_backoff(self):
        aqm, degrader, _ = make_degrader()
        inject(aqm, StuckAtFault(state="lrs"))
        degrader.on_enqueue_batch([Packet()], _IdleView(), now=0.0)
        evaluate(aqm)
        degrader.maybe_retry(now=1.0)
        assert not degrader.degraded
        evaluate(aqm)  # stuck cell trips again immediately
        assert degrader.degraded
        # Second trip schedules with the doubled backoff.
        assert degrader.next_retry_s == pytest.approx(0.0 + 2.0)
        assert aqm.ledger.account("pcam_aqm.reprogram") > 0.0

    def test_transient_fault_recovers_after_scrub(self):
        aqm, degrader, telemetry = make_degrader(recover_after=1)
        inject(aqm, ConductanceDrift(bias=5.0, scale=0.0))
        degrader.on_enqueue_batch([Packet()], _IdleView(), now=0.0)
        evaluate(aqm)
        assert degrader.degraded
        assert degrader.maybe_retry(now=2.0)  # reprogram scrubs drift
        evaluate(aqm)  # clean check while on probation
        assert not degrader.degraded
        assert degrader.recoveries == 1
        assert telemetry.event_count("pcam_aqm.recovered") == 1
        # Recovery reset the backoff for any future episode.
        assert degrader.next_retry_s is None

    def test_reset_restores_analog_service(self):
        aqm, degrader, _ = make_degrader()
        inject(aqm, StuckAtFault(state="lrs"))
        evaluate(aqm)
        assert degrader.degraded
        degrader.reset()
        assert degrader.mode == "analog"
        assert degrader.fallback_events == 0


# ----------------------------------------------------------------------
# Controller-driven supervision
# ----------------------------------------------------------------------
class TestControllerSupervision:
    def test_tick_drives_retry_and_counts_reprograms(self):
        aqm, degrader, _ = make_degrader()
        controller = CognitiveNetworkController()
        controller.supervise("port0.aqm", degrader)
        assert list(controller._supervised) == ["port0.aqm"]
        inject(aqm, StuckAtFault(state="lrs"))
        degrader.on_enqueue_batch([Packet()], _IdleView(), now=0.0)
        evaluate(aqm)
        assert controller.degraded_tables() == ("port0.aqm",)
        assert controller.tick(now=0.5) == ()  # backoff not elapsed
        assert controller.tick(now=1.5) == ("port0.aqm",)
        assert controller.reprogram_events == 1
        assert controller.degraded_tables() == ()

    def test_duplicate_supervision_rejected(self):
        _, degrader, _ = make_degrader()
        controller = CognitiveNetworkController()
        controller.supervise("t", degrader)
        with pytest.raises(ValueError):
            controller.supervise("t", degrader)


# ----------------------------------------------------------------------
# End-to-end through the traffic manager
# ----------------------------------------------------------------------
class TestTrafficManagerIntegration:
    def test_congestion_with_stuck_cells_triggers_fallback(self):
        """The acceptance-criterion path: an injected stuck-cell fault
        demonstrably flips a congested port to the digital path."""
        aqm, degrader, telemetry = make_degrader(check_interval=2,
                                                 trip_after=2)
        inject(aqm, StuckAtFault(state="lrs"))
        manager = CognitiveTrafficManager(
            1, aqm_factory=lambda: degrader, queue_capacity=512,
            port_rate_bps=1e7, telemetry=telemetry)
        rng = np.random.default_rng(4)
        now = 0.0
        for _ in range(32):
            packets = [Packet(priority=int(rng.integers(2)),
                              created_at=now) for _ in range(16)]
            manager.enqueue_batch(0, packets, now)
            for _ in range(8):
                manager.dequeue(0, now)
            now += 0.005
        assert degrader.degraded or degrader.fallback_events > 0
        assert telemetry.event_count("pcam_aqm.fallback_engaged") >= 1
        assert telemetry.event_count("port0.queued") > 0
        assert manager.stats[0].enqueued > 0

    def test_shared_telemetry_wired_into_capable_aqms(self):
        _, degrader, _ = make_degrader()
        degrader.telemetry = None
        shared = TelemetryCollector()
        manager = CognitiveTrafficManager(
            1, aqm_factory=lambda: degrader, telemetry=shared)
        assert manager.aqm(0).telemetry is shared


class _IdleView:
    """Minimal QueueView: an empty, fast port (no AQM pressure)."""

    backlog_packets = 0
    backlog_bytes = 0
    capacity_packets = 1024
    service_rate_bps = 10e9
    last_sojourn_s = 0.0
