"""Fault model unit behaviour: seedability, composability, persistence.

Every fault model must (a) draw exclusively from the caller's seeded
generator, so the same seed materialises the same defect; (b) compose
through :class:`CompositeFaultModel`; and (c) implement the documented
reprogramming semantics — drift scrubs, programming variance
resamples, stuck cells and converter resolution persist.
"""

import math

import numpy as np
import pytest

from repro.core.pcam_cell import PCAMCell, PCAMParams
from repro.crossbar.converters import DAC
from repro.robustness.models import (
    CellFault,
    CompositeFaultModel,
    ConductanceDrift,
    ConverterQuantization,
    ProgrammingVariance,
    StuckAtFault,
    TransientReadNoise,
)

PARAMS = PCAMParams.canonical(0.0, 1.0, 2.0, 3.0, pmax=0.9, pmin=0.05)
PROBES = np.linspace(-1.0, 4.0, 41)


def faulted_cell(model, seed=0, params=PARAMS):
    cell = PCAMCell(params)
    cell.inject_fault(model.materialise(cell.intended_params,
                                        np.random.default_rng(seed)))
    return cell


class TestBaseFault:
    def test_identity_fault_changes_nothing(self):
        cell = PCAMCell(PARAMS)
        clean = cell.response_array(PROBES)
        cell.inject_fault(CellFault())
        np.testing.assert_array_equal(cell.response_array(PROBES), clean)

    def test_clear_fault_restores_intent(self):
        cell = faulted_cell(ConductanceDrift(bias=0.5, scale=0.0))
        assert cell.params != PARAMS
        cell.clear_fault()
        assert cell.fault is None
        assert cell.params == PARAMS


class TestStuckAt:
    def test_lrs_pins_at_pmax(self):
        cell = faulted_cell(StuckAtFault(state="lrs"))
        np.testing.assert_allclose(cell.response_array(PROBES),
                                   PARAMS.pmax)

    def test_hrs_pins_at_pmin(self):
        cell = faulted_cell(StuckAtFault(state="hrs"))
        np.testing.assert_allclose(cell.response_array(PROBES),
                                   PARAMS.pmin)

    def test_survives_reprogramming(self):
        cell = faulted_cell(StuckAtFault(state="lrs"))
        cell.program(PARAMS.shifted(0.3))
        assert cell.fault is not None
        np.testing.assert_allclose(cell.response_array(PROBES),
                                   PARAMS.pmax)

    def test_state_validated(self):
        with pytest.raises(ValueError):
            StuckAtFault(state="floating")


class TestConductanceDrift:
    def test_shifts_all_thresholds(self):
        cell = faulted_cell(ConductanceDrift(bias=0.5, scale=0.0))
        assert cell.params.m1 == pytest.approx(PARAMS.m1 + 0.5)
        assert cell.params.m4 == pytest.approx(PARAMS.m4 + 0.5)
        assert cell.intended_params == PARAMS

    def test_seedable(self):
        a = faulted_cell(ConductanceDrift(scale=0.3), seed=7)
        b = faulted_cell(ConductanceDrift(scale=0.3), seed=7)
        c = faulted_cell(ConductanceDrift(scale=0.3), seed=8)
        assert a.params == b.params
        assert a.params != c.params

    def test_scrubbed_by_reprogram(self):
        cell = faulted_cell(ConductanceDrift(bias=1.0, scale=0.0))
        cell.program(PARAMS)
        assert cell.fault is None
        assert cell.params == PARAMS

    def test_scale_validated(self):
        with pytest.raises(ValueError):
            ConductanceDrift(scale=-0.1)


class TestProgrammingVariance:
    def test_threshold_ordering_preserved(self):
        model = ProgrammingVariance(sigma=5.0)  # huge on purpose
        for seed in range(20):
            p = faulted_cell(model, seed=seed).params
            assert p.m1 <= p.m2 <= p.m3 <= p.m4

    def test_seedable(self):
        a = faulted_cell(ProgrammingVariance(sigma=0.2), seed=3)
        b = faulted_cell(ProgrammingVariance(sigma=0.2), seed=3)
        assert a.params == b.params

    def test_reprogram_resamples_but_persists(self):
        cell = faulted_cell(ProgrammingVariance(sigma=0.2), seed=5)
        first = cell.params
        cell.program(PARAMS)
        assert cell.fault is not None
        assert cell.params != first  # fresh landing error
        assert cell.params != PARAMS

    def test_sigma_validated(self):
        with pytest.raises(ValueError):
            ProgrammingVariance(sigma=-1.0)


class TestConverterQuantization:
    def test_deterministic_and_snapped(self):
        model = ConverterQuantization(dac_bits=3, adc_bits=3,
                                      v_lo=-1.0, v_hi=4.0)
        cell = faulted_cell(model)
        once = cell.response_array(PROBES)
        np.testing.assert_array_equal(cell.response_array(PROBES), once)
        # 3-bit ADC: every response sits on one of 8 levels in [0, 1]
        # (modulo the rail clip applied after the fault hook).
        levels = np.round(once * 7) / 7
        clipped = np.clip(levels, PARAMS.pmin, PARAMS.pmax)
        np.testing.assert_allclose(once, clipped, atol=1e-12)

    def test_coarse_dac_merges_nearby_inputs(self):
        model = ConverterQuantization(dac_bits=2, adc_bits=12,
                                      v_lo=-1.0, v_hi=4.0)
        cell = faulted_cell(model)
        fine = cell.response_array(np.array([1.4, 1.5, 1.6]))
        # A 2-bit DAC has levels 5/3 apart; all three snap together.
        assert fine[0] == fine[1] == fine[2]

    def test_survives_reprogramming(self):
        cell = faulted_cell(ConverterQuantization())
        cell.program(PARAMS)
        assert cell.fault is not None

    def test_validation(self):
        with pytest.raises(ValueError):
            ConverterQuantization(dac_bits=0)
        with pytest.raises(ValueError):
            ConverterQuantization(adc_bits=0)
        with pytest.raises(ValueError):
            ConverterQuantization(v_lo=1.0, v_hi=1.0)

    @pytest.mark.parametrize("dac_bits, adc_bits, v_lo, v_hi",
                             [(6, 6, -2.0, 4.0), (3, 5, -1.0, 4.0),
                              (1, 12, 0.0, 1.0), (10, 2, -0.5, 0.25)])
    def test_snaps_through_the_two_dacs(self, dac_bits, adc_bits,
                                        v_lo, v_hi):
        # The fault quantises with the crossbar's own converter model,
        # bit for bit, including values outside both ranges.
        model = ConverterQuantization(dac_bits=dac_bits, adc_bits=adc_bits,
                                      v_lo=v_lo, v_hi=v_hi)
        fault = model.materialise(PARAMS, np.random.default_rng(0))
        inputs = np.linspace(v_lo - 1.5, v_hi + 1.5, 997)
        input_dac = DAC(bits=dac_bits, v_min=v_lo, v_max=v_hi)
        np.testing.assert_array_equal(
            fault.transform_input(inputs),
            input_dac.quantize_array((inputs - v_lo) / (v_hi - v_lo)))
        responses = np.linspace(-0.3, 1.3, 997)
        np.testing.assert_array_equal(
            fault.transform_response(inputs, responses),
            DAC(bits=adc_bits, v_min=0.0, v_max=1.0)
            .quantize_array(responses))


class TestTransientReadNoise:
    def test_seedable_stream(self):
        a = faulted_cell(TransientReadNoise(sigma=0.05), seed=11)
        b = faulted_cell(TransientReadNoise(sigma=0.05), seed=11)
        np.testing.assert_array_equal(a.response_array(PROBES),
                                      b.response_array(PROBES))

    def test_fresh_noise_per_read(self):
        cell = faulted_cell(TransientReadNoise(sigma=0.05))
        assert not np.array_equal(cell.response_array(PROBES),
                                  cell.response_array(PROBES))

    def test_zero_sigma_is_identity(self):
        clean = PCAMCell(PARAMS).response_array(PROBES)
        cell = faulted_cell(TransientReadNoise(sigma=0.0))
        np.testing.assert_array_equal(cell.response_array(PROBES), clean)

    def test_noise_stays_inside_rails(self):
        cell = faulted_cell(TransientReadNoise(sigma=0.5))
        out = cell.response_array(PROBES)
        assert np.all(out >= PARAMS.pmin) and np.all(out <= PARAMS.pmax)


class TestComposition:
    def test_name_joins_members(self):
        model = CompositeFaultModel([ConductanceDrift(),
                                     TransientReadNoise()])
        assert model.name == "conductance_drift+transient_read_noise"
        labelled = CompositeFaultModel([ConductanceDrift()], label="x")
        assert labelled.name == "x"

    def test_empty_composite_rejected(self):
        with pytest.raises(ValueError):
            CompositeFaultModel([])

    def test_applies_all_members(self):
        model = CompositeFaultModel([
            ConductanceDrift(bias=0.5, scale=0.0),
            StuckAtFault(state="hrs")])
        cell = faulted_cell(model)
        # Drift moved the realised thresholds...
        assert cell.params.m1 == pytest.approx(PARAMS.m1 + 0.5)
        # ...and the stuck member still pins the output.
        np.testing.assert_allclose(cell.response_array(PROBES),
                                   PARAMS.pmin)

    def test_reprogram_scrubs_only_transient_members(self):
        model = CompositeFaultModel([
            ConductanceDrift(bias=0.5, scale=0.0),
            ConverterQuantization(dac_bits=3, adc_bits=3)])
        cell = faulted_cell(model)
        cell.program(PARAMS)
        # Drift member scrubbed: realised thresholds back on target.
        assert cell.params == PARAMS
        # Quantization member survives.
        assert cell.fault is not None
        assert len(cell.fault.faults) == 1

    def test_composite_of_transients_clears_entirely(self):
        model = CompositeFaultModel([ConductanceDrift(bias=0.3,
                                                      scale=0.0)])
        cell = faulted_cell(model)
        cell.program(PARAMS)
        assert cell.fault is None

    def test_seedable(self):
        model = CompositeFaultModel([ConductanceDrift(scale=0.2),
                                     ProgrammingVariance(sigma=0.1)])
        assert (faulted_cell(model, seed=2).params
                == faulted_cell(model, seed=2).params)


@pytest.mark.parametrize("model, field", [
    pytest.param(ConductanceDrift, "scale", id="drift-scale"),
    pytest.param(ConductanceDrift, "bias", id="drift-bias"),
    pytest.param(ProgrammingVariance, "sigma", id="programming-sigma"),
    pytest.param(TransientReadNoise, "sigma", id="read-noise-sigma"),
    pytest.param(ConverterQuantization, "v_lo", id="quantization-v_lo"),
    pytest.param(ConverterQuantization, "v_hi", id="quantization-v_hi"),
])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_rejected(model, field, value):
    # A NaN passes every ordered range check, so it needs its own
    # check: NaN drift would otherwise silently apply zero drift.
    with pytest.raises(ValueError, match=field):
        model(**{field: value})
