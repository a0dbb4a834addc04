"""Device noise models."""

import numpy as np
import pytest

from repro.crossbar.losses import LineLossModel
from repro.crossbar.sensing import SenseAmplifier
from repro.device.memristor import MemristorParams
from repro.device.variability import VariabilityModel


def test_ideal_model_is_deterministic(rng):
    model = VariabilityModel.ideal()
    assert model.sample_read_factor(rng) == 1.0
    assert model.sample_device_factor(rng) == 1.0
    assert model.drift_state(0.7, 1e6) == 0.7


def test_read_factor_lognormal_statistics(rng):
    model = VariabilityModel(read_sigma=0.1, device_sigma=0.0)
    samples = np.array([model.sample_read_factor(rng)
                        for _ in range(4000)])
    assert samples.min() > 0.0
    assert np.log(samples).mean() == pytest.approx(0.0, abs=0.02)
    assert np.log(samples).std() == pytest.approx(0.1, abs=0.02)


def test_device_factor_varies(rng):
    model = VariabilityModel(read_sigma=0.0, device_sigma=0.2)
    factors = {model.sample_device_factor(rng) for _ in range(5)}
    assert len(factors) == 5


def test_drift_exponential_decay():
    model = VariabilityModel(drift_rate_per_s=1.0, drift_target=0.0)
    assert model.drift_state(1.0, 1.0) == pytest.approx(np.exp(-1.0))


def test_drift_toward_nonzero_target():
    model = VariabilityModel(drift_rate_per_s=10.0, drift_target=0.5)
    drifted = model.drift_state(1.0, 100.0)
    assert drifted == pytest.approx(0.5, abs=1e-6)


def test_drift_zero_elapsed_identity():
    model = VariabilityModel(drift_rate_per_s=1.0)
    assert model.drift_state(0.42, 0.0) == 0.42


def test_drift_rejects_negative_elapsed():
    with pytest.raises(ValueError):
        VariabilityModel().drift_state(0.5, -1.0)


@pytest.mark.parametrize("field", ["read_sigma", "device_sigma",
                                   "drift_rate_per_s"])
def test_negative_parameters_rejected(field):
    with pytest.raises(ValueError):
        VariabilityModel(**{field: -0.1})


@pytest.mark.parametrize("field", ["read_sigma", "device_sigma",
                                   "drift_rate_per_s", "drift_target"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_parameters_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        VariabilityModel(**{field: value})


#: Every float field of the substrate models, by model.
SUBSTRATE_FIELDS = [
    (LineLossModel, field) for field in (
        "wire_resistance_per_cell_ohm", "sneak_conductance_s",
        "crosstalk_fraction")] + [
    (SenseAmplifier, field) for field in (
        "gain_error", "offset_a", "noise_a_rms", "energy_per_sense_j")] + [
    (MemristorParams, field) for field in (
        "r_on", "r_off", "v_reference", "forward_gamma", "rectification",
        "v_threshold", "k_program", "v_characteristic",
        "window_exponent")]


@pytest.mark.parametrize("model, field", SUBSTRATE_FIELDS,
                         ids=[f"{model.__name__}.{field}"
                              for model, field in SUBSTRATE_FIELDS])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_substrate_models_reject_non_finite_fields(model, field, value):
    with pytest.raises(ValueError, match=field):
        model(**{field: value})


def test_drift_target_validated():
    with pytest.raises(ValueError):
        VariabilityModel(drift_target=2.0)
