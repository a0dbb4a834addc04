"""Neuromorphic extensions: self-learning AQM, spiking blocks."""

import numpy as np
import pytest

from repro.neuro.neuromorphic import NeuromorphicAQM
from repro.neuro.spiking import (
    LIFNeuron,
    MemristiveSynapses,
    SpikingBurstDetector,
)
from repro.netfunc.aqm.base import TailDropAQM
from repro.simnet.topology import DumbbellExperiment, overload_profile


class TestNeuromorphicAQM:
    def test_learns_to_control_delay(self):
        experiment = DumbbellExperiment(
            n_flows=6, load=0.9, service_rate_bps=40e6,
            capacity_packets=1500, duration_s=8.0,
            rate_fn=overload_profile(2.0, 7.0, 1.6), seed=3)
        aqm = NeuromorphicAQM(rng=np.random.default_rng(2))
        learned = experiment.run(aqm).recorder.summary()
        unmanaged = experiment.run(TailDropAQM()).recorder.summary()
        assert aqm.updates > 100
        assert learned.mean_delay_s < 0.1 * unmanaged.mean_delay_s
        assert learned.mean_delay_s < 0.035

    def test_idle_queue_never_drops(self):
        aqm = NeuromorphicAQM(rng=np.random.default_rng(1))

        class Idle:
            backlog_packets = 0
            backlog_bytes = 0
            capacity_packets = 100
            service_rate_bps = 1e9
            last_sojourn_s = 0.0

        from repro.packet import Packet
        assert not aqm.on_enqueue(Packet(), Idle(), 0.0)

    def test_weights_move_with_teaching_signal(self):
        aqm = NeuromorphicAQM(rng=np.random.default_rng(1))

        class Congested:
            backlog_packets = 500
            backlog_bytes = 500_000
            capacity_packets = 2000
            service_rate_bps = 40e6
            last_sojourn_s = 0.1

        from repro.packet import Packet
        before = aqm.weights
        for step in range(20):
            now = step * 0.01
            aqm.pdp(Congested(), now)
            aqm.on_dequeue(Packet(), Congested(), now, 0.1)
        assert aqm.updates > 0
        assert not np.allclose(aqm.weights, before)

    def test_no_update_inside_band(self):
        aqm = NeuromorphicAQM(rng=np.random.default_rng(1))

        class OnTarget:
            backlog_packets = 50
            backlog_bytes = 50_000
            capacity_packets = 2000
            service_rate_bps = 40e6
            last_sojourn_s = 0.02

        from repro.packet import Packet
        for step in range(10):
            aqm.on_dequeue(Packet(), OnTarget(), step * 0.01, 0.02)
        assert aqm.updates == 0

    def test_inference_charges_energy(self):
        aqm = NeuromorphicAQM(rng=np.random.default_rng(1))

        class Busy:
            backlog_packets = 100
            backlog_bytes = 100_000
            capacity_packets = 2000
            service_rate_bps = 40e6
            last_sojourn_s = 0.02

        aqm.pdp(Busy(), 0.0)
        assert aqm.ledger.account("neuro_aqm.inference") > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            NeuromorphicAQM(target_delay_s=0.0)
        with pytest.raises(ValueError):
            NeuromorphicAQM(learning_rate=0.0)


class TestLIFNeuron:
    def test_integrates_and_fires(self):
        neuron = LIFNeuron(tau_s=1.0, threshold=1.0)
        fired = [neuron.step(t * 0.01, 0.3) for t in range(10)]
        assert any(fired)

    def test_leak_prevents_firing_at_low_rate(self):
        neuron = LIFNeuron(tau_s=0.01, threshold=1.0)
        fired = [neuron.step(t * 1.0, 0.3) for t in range(10)]
        assert not any(fired)

    def test_refractory_period(self):
        neuron = LIFNeuron(tau_s=1.0, threshold=0.1,
                           refractory_s=1.0)
        assert neuron.step(0.0, 1.0)
        assert not neuron.step(0.5, 1.0)  # refractory
        assert neuron.step(1.5, 1.0)

    def test_time_must_not_go_backwards(self):
        neuron = LIFNeuron()
        neuron.step(1.0, 0.0)
        with pytest.raises(ValueError):
            neuron.step(0.5, 0.0)


class TestMemristiveSynapses:
    def test_weighted_sum(self):
        synapses = MemristiveSynapses(3, initial_weight=0.5)
        total = synapses.weighted_sum(np.array([1.0, 0.0, 1.0]))
        assert total == pytest.approx(1.0, abs=0.05)

    def test_potentiation_and_depression(self):
        synapses = MemristiveSynapses(1, initial_weight=0.5)
        synapses.potentiate(0, amount=0.1)
        assert synapses.weights[0] > 0.55
        synapses.depress(0, amount=0.2)
        assert synapses.weights[0] < 0.5

    def test_learning_costs_energy(self):
        synapses = MemristiveSynapses(1)
        synapses.potentiate(0)
        assert synapses.learning_energy_j > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            MemristiveSynapses(0)
        synapses = MemristiveSynapses(2)
        with pytest.raises(IndexError):
            synapses.potentiate(5)
        with pytest.raises(ValueError):
            synapses.weighted_sum(np.ones(3))


class TestBurstDetector:
    def test_quiet_at_nominal_rate(self, rng):
        detector = SpikingBurstDetector(nominal_rate_pps=1000.0,
                                        rng=rng)
        t = 0.0
        for _ in range(2000):
            t += rng.exponential(1e-3)
            detector.on_arrival(t)
        assert detector.spike_count == 0

    def test_spikes_during_burst(self, rng):
        detector = SpikingBurstDetector(nominal_rate_pps=1000.0,
                                        rng=rng)
        t = 0.0
        for _ in range(1000):
            t += rng.exponential(1e-3)
            detector.on_arrival(t)
        for _ in range(500):
            t += rng.exponential(1.25e-4)  # 8x burst
            detector.on_arrival(t)
        assert detector.spike_count > 0

    def test_homeostasis_weakens_synapse(self, rng):
        detector = SpikingBurstDetector(nominal_rate_pps=1000.0,
                                        rng=rng)
        before = detector.synaptic_weight
        t = 0.0
        for _ in range(3000):
            t += 1.0e-4
            detector.on_arrival(t)
        assert detector.spike_count > 0
        assert detector.synaptic_weight < before

    def test_validation(self):
        with pytest.raises(ValueError):
            SpikingBurstDetector(nominal_rate_pps=0.0)
        with pytest.raises(ValueError):
            SpikingBurstDetector(nominal_rate_pps=10.0, sensitivity=1.0)
