"""Cross-module integration tests: the paper's systems working together."""

import numpy as np
import pytest

from repro.analysis.figures import figure8_series
from repro.analysis.stats import banded_fraction
from repro.core.calibration import analog_read_energy_j
from repro.energy.ledger import EnergyLedger
from repro.netfunc.aqm.pcam_aqm import PCAMAQM
from repro.netfunc.aqm.base import TailDropAQM
from repro.simnet.topology import DumbbellExperiment, overload_profile


class TestFigure8EndToEnd:
    @pytest.fixture(scope="class")
    def series(self):
        return figure8_series(duration_s=6.0, overload=(1.5, 5.0, 1.6),
                              service_rate_bps=30e6, seed=3)

    def test_no_aqm_delay_explodes_during_overload(self, series):
        overload_bins = (series.time_s >= 2.5) & (series.time_s < 5.0)
        delays = series.no_aqm_delay_ms[overload_bins]
        delays = delays[~np.isnan(delays)]
        assert delays.mean() > 3 * (series.target_delay_ms
                                    + series.max_deviation_ms)

    def test_pcam_holds_programmed_band(self, series):
        overload_bins = (series.time_s >= 2.5) & (series.time_s < 5.0)
        delays = series.pcam_delay_ms[overload_bins]
        delays = delays[~np.isnan(delays)]
        lower = series.target_delay_ms - series.max_deviation_ms
        upper = series.target_delay_ms + series.max_deviation_ms
        assert banded_fraction(delays, lower, upper) > 0.6
        assert delays.max() < upper * 1.5

    def test_pcam_drops_selectively(self, series):
        assert series.pcam_drops > 0

    def test_band_parameters_surface(self, series):
        assert series.target_delay_ms == pytest.approx(20.0)
        assert series.max_deviation_ms == pytest.approx(10.0)


class TestCalibratedEnergyPath:
    def test_aqm_energy_calibrated_from_dataset(self, small_dataset):
        ledger = EnergyLedger()
        per_cell = analog_read_energy_j(small_dataset)
        aqm = PCAMAQM(ledger=ledger, energy_per_cell_j=per_cell,
                      rng=np.random.default_rng(1))
        experiment = DumbbellExperiment(n_flows=2, load=1.2,
                                        service_rate_bps=10e6,
                                        duration_s=1.0, seed=4)
        experiment.run(aqm)
        searches = ledger.account("pcam_aqm.search")
        assert searches > 0.0
        # Per-packet analog search cost stays far below one digital
        # TCAM search of comparable width (Table 1's point).
        per_eval = searches / aqm.evaluations
        digital_equivalent = 0.58e-15 * 16
        assert per_eval < digital_equivalent


class TestDerivativeAblationShape:
    def test_higher_order_features_do_not_hurt_delay_control(self):
        experiment = DumbbellExperiment(
            n_flows=4, load=0.9, service_rate_bps=20e6,
            capacity_packets=1500, duration_s=4.0,
            rate_fn=overload_profile(1.0, 3.5, 1.6), seed=8)
        results = {}
        for order in (0, 3):
            aqm = PCAMAQM(order=order,
                          rng=np.random.default_rng(order))
            summary = experiment.run(aqm).recorder.summary()
            results[order] = summary
        for order, summary in results.items():
            assert summary.mean_delay_s < 0.035, order


class TestBurstyTrafficPath:
    @staticmethod
    def _run(aqm):
        from repro.simnet.engine import Simulator
        from repro.simnet.flows import ParetoBurstGenerator
        from repro.simnet.queue_sim import BottleneckQueue

        sim = Simulator()
        queue = BottleneckQueue(sim, service_rate_bps=20e6,
                                capacity_packets=500, aqm=aqm)
        generator = ParetoBurstGenerator(
            burst_rate_hz=30.0, mean_burst_packets=100.0,
            packet_size_bytes=1000, priority=1,
            rng=np.random.default_rng(9))
        generator.attach(sim, queue.enqueue)
        sim.run_until(5.0)
        return queue.recorder.summary()

    def test_pareto_bursts_managed_better_than_tail_drop(self):
        # Millisecond-scale Pareto bursts outrun any enqueue-time AQM
        # momentarily, so the bar is relative: the analog AQM must
        # still clearly beat the unmanaged queue on the same trace.
        managed = self._run(PCAMAQM(rng=np.random.default_rng(6)))
        unmanaged = self._run(TailDropAQM())
        assert managed.delivered > 1000
        assert managed.mean_delay_s < 0.6 * unmanaged.mean_delay_s
        assert managed.p95_delay_s < unmanaged.p95_delay_s
