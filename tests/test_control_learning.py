"""Unit coverage for the learned control policies and their interlock.

The closed-loop behaviour (SPSA pulling a misprogrammed switch back
into the paper's delay envelope under live scenarios) is exercised by
``benchmarks/test_control_loop.py``; these tests pin the mechanics —
episode accounting, the trend-cancelling schedule, blocking, gain
adaptation, bounds projection, gating — against small synthetic
plants that run in milliseconds.
"""

import math

import numpy as np
import pytest

from repro.control.learning import (
    DelayEnvelope,
    EnvelopeGate,
    ProgramBounds,
    SPSAPolicy,
)
from repro.control.loop import (
    Action,
    AQMActuator,
    ControlLoop,
    SwitchSensor,
    queue_drops,
)
from repro.dataplane.results import Verdict
from repro.fabric.scenario import build_fabric
from repro.netfunc.aqm.pcam_aqm import PCAMAQM
from repro.packet import Packet
from repro.robustness.injector import FaultInjector
from repro.robustness.models import CellFault, StuckAtFault
from repro.simnet.scenarios import default_switch_spec


def congested(delay_s: float, drop_rate: float = 0.0) -> dict:
    return {"packets": 1000, "drops": int(1000 * drop_rate),
            "drop_rate": drop_rate, "delay_s": delay_s}


def make_policy(target=0.120, rel=0.5, seed=0):
    return SPSAPolicy(seed, np.log([target, rel]))


class TestDelayEnvelope:
    def test_defaults_are_the_paper_objective(self):
        env = DelayEnvelope()
        assert env.target_s == pytest.approx(0.020)
        assert env.halfwidth_s == pytest.approx(0.010)

    def test_rejects_inverted_band(self):
        with pytest.raises(ValueError):
            DelayEnvelope(target_s=0.010, halfwidth_s=0.020)

    def test_within(self):
        env = DelayEnvelope()
        assert env.within(0.020) and env.within(0.0295)
        assert not env.within(0.031) and not env.within(0.009)

    def test_signal_requires_real_congestion(self):
        env = DelayEnvelope()
        assert not env.has_signal({"packets": 0, "delay_s": 1.0})
        # Inside (and hovering just above) the envelope: noise.
        assert not env.has_signal(congested(0.021))
        assert not env.has_signal(congested(0.029))
        # Beyond the upper edge, or drop activity: signal.
        assert env.has_signal(congested(0.031))
        assert env.has_signal(congested(0.005, drop_rate=0.05))

    def test_score_is_scale_free_with_drop_penalty(self):
        env = DelayEnvelope()
        assert env.score(congested(0.020)) == pytest.approx(0.0)
        assert env.score(congested(0.040)) == \
            pytest.approx(env.score(congested(0.010)))
        assert env.score(congested(0.020, drop_rate=0.1)) == \
            pytest.approx(env.drop_weight * 0.1)

    def test_edge_score(self):
        env = DelayEnvelope()
        assert env.edge_score == pytest.approx(math.log(0.030 / 0.020))


class TestProgramBounds:
    def test_clamp_log_projects_into_the_box(self):
        bounds = ProgramBounds()
        wild = np.log([5.0, 3.0])
        target, rel = np.exp(bounds.clamp_log(wild))
        assert target == pytest.approx(bounds.max_target_s)
        assert rel == pytest.approx(bounds.max_rel_deviation)
        low = np.log([1e-6, 1e-3])
        target, rel = np.exp(bounds.clamp_log(low))
        assert target == pytest.approx(bounds.min_target_s)
        assert rel == pytest.approx(bounds.min_rel_deviation)

    def test_rejects_bad_boxes(self):
        with pytest.raises(ValueError):
            ProgramBounds(min_target_s=0.1, max_target_s=0.01)
        with pytest.raises(ValueError):
            ProgramBounds(min_rel_deviation=0.9, max_rel_deviation=0.2)


class TestSPSAPolicy:
    def test_windows_without_signal_advance_nothing(self):
        policy = make_policy()
        before = policy.programming
        assert policy.decide(0.0, congested(0.021)) == ()
        assert policy.episodes == 0
        assert policy.programming == before

    def test_schedule_is_trend_cancelling(self):
        policy = make_policy()
        signs = []
        for tick in range(8):
            actions = policy.decide(float(tick), congested(0.100))
            (action,) = actions
            target, _ = action.args
            centre, _ = policy.programming
            signs.append("plus" if target > centre else "minus")
        # Two full iterations of the +,-,-,+ deployment order.
        assert signs[:4] == ["plus", "minus", "minus", "plus"]
        assert policy.iteration >= 1

    def test_deployments_stay_inside_bounds(self):
        bounds = ProgramBounds()
        policy = make_policy(target=0.199, rel=0.89)
        for tick in range(12):
            for action in policy.decide(float(tick), congested(0.150)):
                target, deviation = action.args
                assert bounds.min_target_s <= target \
                    <= bounds.max_target_s * (1 + 1e-9)
                assert 0.0 < deviation < target

    def test_converges_on_a_synthetic_plant(self):
        """Measured delay == deployed target.

        The loop must pull the plant inside the envelope and then go
        quiet: windows inside the band carry no signal, so a
        converged sweep stops dithering the live programming.
        """
        policy = make_policy(target=0.120)
        deployed = policy.programming[0]
        for tick in range(200):
            actions = policy.decide(float(tick), congested(deployed))
            if actions:
                deployed = actions[-1].args[0]
        envelope = policy.envelope
        assert deployed <= envelope.target_s + envelope.halfwidth_s
        episodes = policy.episodes
        policy.decide(999.0, congested(deployed))
        assert policy.episodes == episodes  # quiescent once in band

    def test_blocking_reverts_a_flung_step(self):
        policy = make_policy(target=0.050)
        # Iteration 1: plus candidates measure worse than minus, so
        # closing it takes a real step away from the start centre.
        delays = [0.080, 0.080, 0.050, 0.050, 0.080,
                  0.450, 0.450, 0.450, 0.450]
        baseline = policy.theta.copy()
        for tick, delay in enumerate(delays[:5]):
            policy.decide(float(tick), congested(delay))
        assert policy._prev is not None
        centre_after_step = policy.theta.copy()
        assert not np.allclose(centre_after_step, baseline)
        # Iteration 2: the stepped-into centre measures far worse
        # than the baseline — the step must be reverted.
        for tick, delay in enumerate(delays[5:], start=5):
            policy.decide(float(tick), congested(delay))
        assert policy.blocked == 1
        assert np.allclose(policy.theta, baseline)
        # Baseline cleared: the next bad iteration steps, not blocks.
        assert policy._prev is None

    def test_gain_shrinks_when_converged_and_expands_when_stale(self):
        policy = make_policy()
        for tick in range(4):
            policy.decide(float(tick), congested(0.100))
        policy.decide(4.0, congested(0.100))
        assert policy.gain == pytest.approx(1.0)  # stale: stays open
        converged = make_policy()
        # Signalful but cheap windows (drop activity, near-target
        # delay) score below the envelope edge: the gain shrinks.
        for tick in range(5):
            converged.decide(float(tick), congested(0.021, 0.05))
        assert converged.gain < 1.0
        assert converged.gain >= converged.gain_floor

    def test_sweep_is_deterministic_in_the_seed(self):
        runs = []
        for _ in range(2):
            policy = make_policy(seed=7)
            trail = []
            for tick in range(40):
                for action in policy.decide(float(tick),
                                            congested(0.080)):
                    trail.append(action.args)
            runs.append(trail)
        assert runs[0] == runs[1]
        other = make_policy(seed=8)
        trail = []
        for tick in range(40):
            for action in other.decide(float(tick), congested(0.080)):
                trail.append(action.args)
        assert trail != runs[0]

    def test_skipped_windows_do_not_shift_the_draw_sequence(self):
        noisy = make_policy(seed=3)
        clean = make_policy(seed=3)
        noisy_trail, clean_trail = [], []
        for tick in range(30):
            for action in clean.decide(float(tick), congested(0.080)):
                clean_trail.append(action.args)
            # The noisy twin sees a benign window between every
            # congested one; its learned trajectory is identical.
            noisy.decide(float(tick) - 0.5, congested(0.0005))
            for action in noisy.decide(float(tick), congested(0.080)):
                noisy_trail.append(action.args)
        assert noisy_trail == clean_trail


class PerPortGate(EnvelopeGate):
    """The gate probing port by port, one ``deviation`` call each and
    stopping at the first failure: the reference for the stacked
    probes."""

    def healthy(self):
        self.checks += 1
        for aqm in self.aqms:
            if getattr(aqm, "degraded", False):
                return False
            if self.deviation(getattr(aqm, "analog", aqm)) \
                    > self.pdp_envelope:
                return False
        return True

    def apply(self, action):
        if not self.healthy():
            self.rejections += 1
            return False
        rollback = [(aqm.target_delay_s, aqm.max_deviation_s)
                    for aqm in self.aqms]
        if not self.inner.apply(action):
            return False
        for aqm, (target, deviation) in zip(self.aqms, rollback):
            if self.deviation(aqm) > self.pdp_envelope:
                self.violations += 1
                self.inner.apply(Action("retarget", (target, deviation)))
                return False
        return True


class StuckAfterWrite(CellFault):
    """Healthy until the next write, then pinned at full match."""

    def __init__(self):
        super().__init__()
        self.written = False

    def on_program(self, intended):
        self.written = True
        return intended

    def transform_response(self, values, response):
        return np.ones_like(response) if self.written else response


def three_ports():
    return [PCAMAQM(rng=np.random.default_rng(port)) for port in range(3)]


def gate_counters(gate):
    return gate.checks, gate.rejections, gate.violations


def cell_counters(aqms):
    return [[aqm.pipeline.stage(name).evaluations
             for name in aqm.pipeline.stage_names] for aqm in aqms]


class TestEnvelopeGate:
    def make_gate(self):
        aqm = PCAMAQM(rng=np.random.default_rng(0))
        gate = EnvelopeGate(AQMActuator(aqm), [aqm])
        return aqm, gate

    def test_healthy_retarget_commits(self):
        aqm, gate = self.make_gate()
        assert gate.apply(Action("retarget", (0.010, 0.004)))
        assert aqm.target_delay_s == pytest.approx(0.010)
        assert gate.checks == 1
        assert gate.rejections == 0 and gate.violations == 0

    def test_degraded_table_refuses_candidates(self):
        aqm, _ = self.make_gate()

        class Wrapped:
            degraded = True
            analog = aqm

        gate = EnvelopeGate(AQMActuator(aqm), [Wrapped()])
        assert not gate.apply(Action("retarget", (0.010, 0.004)))
        assert gate.rejections == 1
        assert aqm.target_delay_s == pytest.approx(0.020)

    def test_out_of_envelope_write_rolls_back(self, monkeypatch):
        aqm, gate = self.make_gate()
        # Pre-check passes, probe fails (one worst deviation per AQM).
        deviations = iter([np.array([0.0]), np.array([0.5])])

        def fake_deviations(analogs):
            return next(deviations)

        monkeypatch.setattr(gate, "deviations", fake_deviations)
        assert not gate.apply(Action("retarget", (0.010, 0.004)))
        assert gate.violations == 1
        # Rolled back to the pre-apply programming.
        assert aqm.target_delay_s == pytest.approx(0.020)
        assert aqm.max_deviation_s == pytest.approx(0.010)

    def test_fault_on_the_last_port_rejects_the_candidate(self):
        gates = []
        for gate_class in (EnvelopeGate, PerPortGate):
            aqms = three_ports()
            FaultInjector(StuckAtFault(state="lrs"), cell_fraction=1.0,
                          rng=np.random.default_rng(0)).inject_aqm(aqms[-1])
            gate = gate_class(AQMActuator(*aqms), aqms)
            assert not gate.apply(Action("retarget", (0.010, 0.004)))
            assert [aqm.target_delay_s for aqm in aqms] == [0.020] * 3
            gates.append((gate_counters(gate), cell_counters(aqms)))
        stacked, per_port = gates
        assert stacked == per_port
        assert stacked[0] == (1, 1, 0)

    @pytest.mark.parametrize("port", range(3))
    def test_post_apply_violation_on_one_port_rolls_every_port_back(
            self, port):
        results = []
        for gate_class in (EnvelopeGate, PerPortGate):
            aqms = three_ports()
            aqms[port].pipeline.stage("sojourn_time").inject_fault(
                StuckAfterWrite())
            gate = gate_class(AQMActuator(*aqms), aqms)
            verdict = gate.apply(Action("retarget", (0.010, 0.004)))
            results.append((verdict, gate_counters(gate),
                            [(aqm.target_delay_s, aqm.max_deviation_s)
                             for aqm in aqms]))
        stacked, per_port = results
        assert stacked == per_port
        assert stacked == (False, (1, 0, 1), [(0.020, 0.010)] * 3)

    def test_repairs_pass_through_ungated(self):
        aqm, gate = self.make_gate()
        checks = gate.checks
        assert gate.apply(Action("reprogram_intended"))
        assert gate.checks == checks  # no health check consumed


class TestSensingAndActuation:
    def test_actuator_keeps_the_switch_uniform(self):
        aqms = [PCAMAQM(rng=np.random.default_rng(i)) for i in range(3)]
        actuator = AQMActuator(*aqms)
        assert actuator.apply(Action("retarget", (0.008, 0.003)))
        for aqm in aqms:
            assert aqm.target_delay_s == pytest.approx(0.008)
        with pytest.raises(ValueError):
            actuator.apply(Action("format_tables"))

    def test_switch_sensor_counts_every_queue_loss(self):
        class FakeVerdict:
            def __init__(self, value):
                self.value = value

        counts = {FakeVerdict("queued"): 90,
                  FakeVerdict("dropped_aqm"): 6,
                  FakeVerdict("dropped_overflow"): 3,
                  FakeVerdict("dropped_acl"): 1}
        assert queue_drops(counts) == 9

    def test_fleet_sensor_counts_overflow_like_the_switch_sensor(self):
        # 64 packets into one 8-deep queue: 56 tail-overflow losses,
        # which the shard's switch sensor and the fabric's poll rows
        # must both report as queue drops.
        fabric = build_fabric(default_switch_spec(queue_capacity=8,
                                                  n_priorities=1), 0, 1)
        try:
            packets = [Packet(size_bytes=1500,
                              fields={"src_ip": "1.2.3.4",
                                      "dst_ip": "10.0.0.1",
                                      "src_port": 1000, "dst_port": 80,
                                      "protocol": 6})
                       for _ in range(64)]
            fabric.process_batch(packets, now=0.5)
            switch = fabric.shards[0].processor
            assert switch.verdict_counts[Verdict.DROPPED_OVERFLOW] == 56
            assert SwitchSensor(switch).sense(0.5)["drops"] == 56
            rows = fabric.poll_metrics()["shards"]
            assert sum(queue_drops(row["verdict_counts"])
                       for row in rows) == 56
        finally:
            fabric.close()

    def test_loop_paces_on_the_sim_clock(self):
        sensed, decided = [], []

        class Congested:
            def sense(self, now):
                sensed.append(now)
                return congested(0.100)

        class Hold:
            def decide(self, now, observation):
                decided.append(now)
                return ()

        class Sink:
            def apply(self, action):
                return True

        loop = ControlLoop(Congested(), Hold(), Sink(),
                           min_interval_s=1.0)
        for now in (0.0, 0.2, 0.9, 1.05, 1.5, 2.2):
            loop.step(now)
        assert sensed == [0.0, 1.05, 2.2]
        assert decided == sensed
        assert loop.decisions == 3
