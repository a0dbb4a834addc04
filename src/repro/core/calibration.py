"""Feature-to-voltage calibration against the memristor dataset.

Figure 7's caption: "The PDP ranges from 0 to 1 depending upon the
analog input (sojourn time and buffer size) mapped to hardware
voltages (DACs)".  This module provides that mapping and the
dataset-driven calibration utilities:

* :class:`FeatureScaler` — affine feature <-> voltage mapping (the
  converter quantisation of the AQM's DACs is modelled by
  :class:`repro.robustness.models.ConverterQuantization`),
* :func:`scale_params` — translate pCAM parameters expressed in
  feature units (e.g. milliseconds of sojourn time) into the voltage
  domain the hardware matches in,
* :func:`noise_band` — Monte-Carlo mean/std response of a device cell
  (Figure 7's measured curves),
* :func:`analog_read_energy_j` — per-cell search energy calibrated
  from the dataset (feeds the array/table energy accounting).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.device_cell import DevicePCAMCell
from repro.core.pcam_cell import PCAMParams
from repro.device.dataset import MemristorDataset
from repro.device.energy import energy_statistics
from repro.device.variability import check_finite

__all__ = [
    "FeatureScaler",
    "analog_read_energy_j",
    "noise_band",
    "scale_params",
]


@dataclass(frozen=True)
class FeatureScaler:
    """Affine mapping between a feature range and a voltage range.

    Features outside the declared range are clipped to it — the DAC
    rails saturate, they do not wrap.
    """

    feature_lo: float
    feature_hi: float
    v_lo: float
    v_hi: float

    def __post_init__(self) -> None:
        check_finite(feature_lo=self.feature_lo,
                     feature_hi=self.feature_hi, v_lo=self.v_lo,
                     v_hi=self.v_hi)
        if self.feature_lo >= self.feature_hi:
            raise ValueError(
                f"empty feature range: [{self.feature_lo}, "
                f"{self.feature_hi}]")
        if self.v_lo >= self.v_hi:
            raise ValueError(
                f"empty voltage range: [{self.v_lo}, {self.v_hi}]")

    @property
    def gain(self) -> float:
        """Volts per feature unit."""
        return ((self.v_hi - self.v_lo)
                / (self.feature_hi - self.feature_lo))

    def to_voltage(self, feature: float) -> float:
        """Map a feature value to its hardware voltage."""
        clipped = min(self.feature_hi, max(self.feature_lo, feature))
        fraction = ((clipped - self.feature_lo)
                    / (self.feature_hi - self.feature_lo))
        return self.v_lo + fraction * (self.v_hi - self.v_lo)

    def from_voltage(self, voltage: float) -> float:
        """Inverse of :meth:`to_voltage` inside the feature range."""
        fraction = (voltage - self.v_lo) / (self.v_hi - self.v_lo)
        return self.feature_lo + fraction * (self.feature_hi
                                             - self.feature_lo)

    def to_voltage_array(self, features: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`to_voltage` over a feature array."""
        clipped = np.clip(np.asarray(features, dtype=float),
                          self.feature_lo, self.feature_hi)
        fraction = ((clipped - self.feature_lo)
                    / (self.feature_hi - self.feature_lo))
        return self.v_lo + fraction * (self.v_hi - self.v_lo)


def scale_params(params: PCAMParams, scaler: FeatureScaler) -> PCAMParams:
    """Translate feature-domain pCAM parameters into the voltage domain.

    The thresholds M1..M4 move through the affine map; the slopes are
    rescaled by the inverse gain so the response at corresponding
    points is unchanged.
    """
    gain = scaler.gain
    return PCAMParams(
        m1=scaler.to_voltage(params.m1),
        m2=scaler.to_voltage(params.m2),
        m3=scaler.to_voltage(params.m3),
        m4=scaler.to_voltage(params.m4),
        sa=params.sa / gain,
        sb=params.sb / gain,
        pmax=params.pmax,
        pmin=params.pmin)


def noise_band(cell: DevicePCAMCell, inputs: np.ndarray,
               trials: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo (mean, std) of a device cell's response.

    Each trial re-evaluates every input with fresh cycle-to-cycle
    noise; the band is what the Figure 7 measurement campaign sees.
    """
    if trials < 2:
        raise ValueError(f"need at least 2 trials: {trials!r}")
    x = np.asarray(inputs, dtype=float)
    samples = np.stack([cell.response_array(x) for _ in range(trials)])
    return samples.mean(axis=0), samples.std(axis=0)


def analog_read_energy_j(dataset: MemristorDataset,
                         percentile: float = 10.0) -> float:
    """A calibrated per-cell search energy from the dataset [J].

    The paper charges analog searches at the energy of the chip's
    *low-energy states*; the default takes the 10th percentile of the
    per-state read-energy distribution at the search voltage — a
    conservative stand-in for "the lowest energy consumption states".
    """
    if not 0.0 <= percentile <= 100.0:
        raise ValueError(f"percentile must be in [0, 100]: {percentile!r}")
    voltage = dataset.params.v_reference
    currents = dataset.currents_at_voltage(voltage)
    energies = np.abs(voltage * currents) * 1e-9
    energies = energies[energies > 0.0]
    if energies.size == 0:
        raise ValueError("dataset has no dissipating reads")
    return float(np.percentile(energies, percentile))
