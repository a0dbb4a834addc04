"""The digital-to-analog boundary converter (DAC).

The analog match-action tables live behind a digital parser and in
front of a digital traffic manager, so every query crosses a DAC on
the way in — Figure 7's inputs are "sojourn time and buffer size
mapped to hardware voltages (DACs)".  The same converter model also
snaps sensed responses when a fault campaign studies finite read-out
resolution (:class:`repro.robustness.models.ConverterQuantization`).

Converters are the precision bottleneck of the analog pipeline (RQ2):
their resolution bounds how finely a feature can be expressed as a
voltage, and their conversion energy is charged to the
``conversion`` account of the energy ledger.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.device.variability import check_finite


@dataclass(frozen=True)
class DAC:
    """An ideal-linear digital-to-analog converter with quantization.

    Parameters
    ----------
    bits:
        Resolution.  The output voltage grid has ``2**bits`` levels.
    v_min, v_max:
        Output range endpoints [V].
    energy_per_conversion_j:
        Energy charged per conversion.  Default is a representative
        figure for an embedded ~GHz DAC (~50 fJ/conversion).
    inl_lsb:
        Integral nonlinearity amplitude in LSBs; models a smooth bow
        in the transfer characteristic.
    """

    bits: int = 8
    v_min: float = 0.0
    v_max: float = 4.0
    energy_per_conversion_j: float = 50e-15
    inl_lsb: float = 0.0

    def __post_init__(self) -> None:
        check_finite(v_min=self.v_min, v_max=self.v_max,
                     energy_per_conversion_j=self.energy_per_conversion_j,
                     inl_lsb=self.inl_lsb)
        if self.bits < 1:
            raise ValueError(f"bits must be >= 1: {self.bits!r}")
        if self.v_max <= self.v_min:
            raise ValueError(
                f"v_max must exceed v_min: {self.v_min}, {self.v_max}")
        if self.energy_per_conversion_j < 0:
            raise ValueError("conversion energy must be non-negative")

    @property
    def levels(self) -> int:
        """Number of output levels."""
        return 2 ** self.bits

    @property
    def lsb_v(self) -> float:
        """Voltage step between adjacent codes [V]."""
        return (self.v_max - self.v_min) / (self.levels - 1)

    def quantize_array(self, values: np.ndarray) -> np.ndarray:
        """Round-trip normalised values through the converter.

        Each value is clamped into [0, 1], snapped to the nearest of
        :attr:`levels` codes, and returned as the *voltage* the
        converter actually presents for it (INL bow included).
        """
        clamped = np.clip(np.asarray(values, dtype=float), 0.0, 1.0)
        codes = np.round(clamped * (self.levels - 1))
        ideal = self.v_min + codes * self.lsb_v
        if self.inl_lsb == 0.0:
            return ideal
        # Smooth sinusoidal bow, the textbook INL shape.
        bow = self.inl_lsb * self.lsb_v * np.sin(
            np.pi * codes / (self.levels - 1))
        return ideal + bow
