"""The DAC, the one boundary converter model."""

import math

import numpy as np
import pytest

from repro.crossbar.converters import DAC


class TestDAC:
    def test_levels_and_lsb(self):
        dac = DAC(bits=8, v_min=0.0, v_max=4.0)
        assert dac.levels == 256
        assert dac.lsb_v == pytest.approx(4.0 / 255)

    def test_encode_endpoints(self):
        # The input endpoints snap to the first and the last code.
        dac = DAC(bits=8, v_min=1.0, v_max=3.0)
        codes = (dac.quantize_array([0.0, 1.0]) - dac.v_min) / dac.lsb_v
        np.testing.assert_allclose(codes, [0, dac.levels - 1])

    def test_convert_endpoints(self):
        dac = DAC(bits=8, v_min=0.0, v_max=4.0)
        np.testing.assert_array_equal(dac.quantize_array([0.0, 1.0]),
                                      [0.0, 4.0])

    def test_out_of_range_inputs_clamp_to_the_rails(self):
        dac = DAC(bits=5, v_min=0.0, v_max=2.0)
        out = dac.quantize_array([-0.5, -0.2, 1.2, 1.5])
        np.testing.assert_array_equal(out, [0.0, 0.0, 2.0, 2.0])

    def test_quantization_error_bounded_by_half_lsb(self):
        dac = DAC(bits=6, v_min=0.0, v_max=1.0)
        values = np.linspace(0, 1, 37)
        error = np.abs(dac.quantize_array(values) - values)
        assert np.all(error <= dac.lsb_v / 2 + 1e-12)

    def test_more_bits_less_error(self):
        coarse = DAC(bits=4, v_min=0.0, v_max=1.0)
        fine = DAC(bits=12, v_min=0.0, v_max=1.0)
        value = 0.123456
        assert (abs(fine.quantize_array(value) - value)
                < abs(coarse.quantize_array(value) - value))

    def test_inl_bows_midscale_only(self):
        dac = DAC(bits=8, v_min=0.0, v_max=1.0, inl_lsb=2.0)
        low, high = dac.quantize_array([0.0, 1.0])
        assert low == pytest.approx(0.0)
        assert high == pytest.approx(1.0, abs=1e-9)
        assert dac.quantize_array(128 / 255) > 128 * dac.lsb_v

    def test_inl_bow_follows_the_code(self):
        # The bow is a function of the snapped code, so out-of-range
        # inputs bow exactly like the rail they clamp to.
        dac = DAC(bits=5, v_min=0.0, v_max=2.0, inl_lsb=0.7)
        values = np.linspace(-0.2, 1.2, 29)
        codes = np.round(np.clip(values, 0.0, 1.0) * (dac.levels - 1))
        expected = (dac.v_min + codes * dac.lsb_v
                    + dac.inl_lsb * dac.lsb_v
                    * np.sin(np.pi * codes / (dac.levels - 1)))
        np.testing.assert_array_equal(dac.quantize_array(values), expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            DAC(bits=0)
        with pytest.raises(ValueError):
            DAC(v_min=1.0, v_max=0.0)
        with pytest.raises(ValueError):
            DAC(energy_per_conversion_j=-1.0)

    @pytest.mark.parametrize("field", ["v_min", "v_max",
                                       "energy_per_conversion_j",
                                       "inl_lsb"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            DAC(**{field: value})
