"""Feature-to-voltage calibration (the Figure 7 DAC mapping)."""

import numpy as np
import pytest

from repro.core.calibration import (
    FeatureScaler,
    analog_read_energy_j,
    noise_band,
    scale_params,
)
from repro.core.device_cell import DevicePCAMCell
from repro.core.pcam_cell import PCAMCell, prog_pcam
from repro.device.variability import VariabilityModel


class TestFeatureScaler:
    def make(self, **kwargs):
        defaults = dict(feature_lo=0.0, feature_hi=0.1,
                        v_lo=0.0, v_hi=4.0)
        defaults.update(kwargs)
        return FeatureScaler(**defaults)

    def test_endpoints_map_to_rails(self):
        scaler = self.make()
        assert scaler.to_voltage(0.0) == pytest.approx(0.0)
        assert scaler.to_voltage(0.1) == pytest.approx(4.0)

    def test_linearity(self):
        scaler = self.make()
        assert scaler.to_voltage(0.05) == pytest.approx(2.0)

    def test_clipping_at_rails(self):
        scaler = self.make()
        assert scaler.to_voltage(-1.0) == pytest.approx(0.0)
        assert scaler.to_voltage(1.0) == pytest.approx(4.0)

    def test_round_trip(self):
        scaler = self.make()
        assert scaler.from_voltage(scaler.to_voltage(0.03)) == \
            pytest.approx(0.03)

    def test_gain(self):
        assert self.make().gain == pytest.approx(40.0)

    def test_vectorised_matches_scalar(self):
        scaler = self.make()
        features = np.linspace(-0.02, 0.12, 9)
        array = scaler.to_voltage_array(features)
        scalar = [scaler.to_voltage(float(f)) for f in features]
        np.testing.assert_allclose(array, scalar)

    def test_validation(self):
        with pytest.raises(ValueError):
            self.make(feature_lo=1.0, feature_hi=0.0)
        with pytest.raises(ValueError):
            self.make(v_lo=4.0, v_hi=0.0)

    @pytest.mark.parametrize("field", ["feature_lo", "feature_hi", "v_lo",
                                       "v_hi"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_range_rejected(self, field, value):
        # A NaN bound passes both ordered range checks, and to_voltage
        # would then hand the pCAM kernel a NaN, which reads as a full
        # match.
        with pytest.raises(ValueError, match=field):
            self.make(**{field: value})


class TestScaleParams:
    def test_thresholds_translated(self):
        scaler = FeatureScaler(0.0, 100.0, 0.0, 4.0)
        scaled = scale_params(prog_pcam(10, 20, 60, 80), scaler)
        assert scaled.m1 == pytest.approx(0.4)
        assert scaled.m2 == pytest.approx(0.8)
        assert scaled.m3 == pytest.approx(2.4)
        assert scaled.m4 == pytest.approx(3.2)

    def test_response_preserved_at_corresponding_points(self):
        scaler = FeatureScaler(0.0, 100.0, 0.0, 4.0)
        feature_params = prog_pcam(10, 20, 60, 80)
        voltage_params = scale_params(feature_params, scaler)
        feature_cell = PCAMCell(feature_params)
        voltage_cell = PCAMCell(voltage_params)
        for feature in (5.0, 15.0, 40.0, 70.0, 90.0):
            assert voltage_cell.response(
                scaler.to_voltage(feature)) == pytest.approx(
                    feature_cell.response(feature), abs=1e-9)

    def test_slopes_rescaled_by_gain(self):
        scaler = FeatureScaler(0.0, 100.0, 0.0, 4.0)
        base = prog_pcam(10, 20, 60, 80)
        scaled = scale_params(base, scaler)
        assert scaled.sa == pytest.approx(base.sa / scaler.gain)


class TestNoiseBand:
    def test_band_shape_and_positivity(self, rng):
        cell = DevicePCAMCell(
            prog_pcam(1.0, 2.0, 2.5, 3.5),
            variability=VariabilityModel(read_sigma=0.05,
                                         device_sigma=0.0), rng=rng)
        inputs = np.linspace(0.5, 4.0, 7)
        mean, std = noise_band(cell, inputs, trials=6)
        assert mean.shape == std.shape == inputs.shape
        assert np.all(std >= 0.0)
        assert std.max() > 0.0

    def test_trials_validated(self, rng):
        cell = DevicePCAMCell(prog_pcam(1.0, 2.0, 2.5, 3.5), rng=rng)
        with pytest.raises(ValueError):
            noise_band(cell, np.zeros(3), trials=1)


class TestAnalogReadEnergy:
    def test_within_dataset_extremes(self, small_dataset):
        from repro.device.energy import energy_statistics
        stats = energy_statistics(small_dataset)
        energy = analog_read_energy_j(small_dataset)
        assert stats.min_j <= energy <= stats.max_j

    def test_lower_percentile_cheaper(self, small_dataset):
        assert (analog_read_energy_j(small_dataset, percentile=5)
                <= analog_read_energy_j(small_dataset, percentile=60))

    def test_percentile_validated(self, small_dataset):
        with pytest.raises(ValueError):
            analog_read_energy_j(small_dataset, percentile=150)
