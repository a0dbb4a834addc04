"""Stochastic non-idealities of memristive devices.

Real memristor chips — including the Nb:SrTiO3 devices behind the
paper's dataset — exhibit three distinct randomness sources that matter
for analog match-action processing:

* **cycle-to-cycle (C2C) read noise**: successive reads of the same
  state return slightly different currents (trap occupation noise,
  thermal noise).  Modelled as multiplicative log-normal noise.
* **device-to-device (D2D) spread**: nominally identical devices have
  different resistance windows (fabrication variation).  Modelled as a
  per-device log-normal factor drawn once at construction.
* **retention drift**: a programmed state relaxes toward its stable
  attractor over time.  Modelled as exponential decay of the state
  toward ``drift_target``.

All three default to the moderate magnitudes reported for interface
type memristors; setting the sigmas to zero yields an ideal device,
which the calibration and test code uses as a reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def check_finite(**fields: float) -> None:
    """Reject a non-finite model parameter, naming the field.

    A NaN slips past every ordered range check (``nan < 0`` and
    ``nan > 0`` are both False) and an infinity turns the arithmetic
    downstream into inf/inf, so every non-ideality model checks
    finiteness before its ranges.
    """
    for name, value in fields.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite: {value!r}")


@dataclass(frozen=True)
class VariabilityModel:
    """Parameters for the three noise processes.

    Parameters
    ----------
    read_sigma:
        Standard deviation of the log of the multiplicative C2C read
        noise factor.  0 disables read noise.
    device_sigma:
        Standard deviation of the log of the per-device conductance
        scale factor.  0 disables D2D spread.
    drift_rate_per_s:
        Exponential relaxation rate of the state variable [1/s].
        0 disables retention drift.
    drift_target:
        State value toward which the device relaxes.
    """

    read_sigma: float = 0.03
    device_sigma: float = 0.05
    drift_rate_per_s: float = 0.0
    drift_target: float = 0.0

    def __post_init__(self) -> None:
        check_finite(read_sigma=self.read_sigma,
                     device_sigma=self.device_sigma,
                     drift_rate_per_s=self.drift_rate_per_s,
                     drift_target=self.drift_target)
        for name in ("read_sigma", "device_sigma", "drift_rate_per_s"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be non-negative: {value!r}")
        if not 0.0 <= self.drift_target <= 1.0:
            raise ValueError(
                f"drift_target must be in [0, 1]: {self.drift_target!r}")

    @classmethod
    def ideal(cls) -> "VariabilityModel":
        """A noiseless, drift-free device model."""
        return cls(read_sigma=0.0, device_sigma=0.0, drift_rate_per_s=0.0)

    def sample_read_factor(self, rng: np.random.Generator) -> float:
        """One multiplicative C2C read-noise factor."""
        if self.read_sigma == 0.0:
            return 1.0
        return float(rng.lognormal(mean=0.0, sigma=self.read_sigma))

    def sample_device_factor(self, rng: np.random.Generator) -> float:
        """One multiplicative per-device conductance scale factor."""
        if self.device_sigma == 0.0:
            return 1.0
        return float(rng.lognormal(mean=0.0, sigma=self.device_sigma))

    def drift_state(self, state: float, elapsed_s: float) -> float:
        """State after ``elapsed_s`` seconds of retention drift."""
        if elapsed_s < 0:
            raise ValueError(f"elapsed time must be >= 0: {elapsed_s!r}")
        if self.drift_rate_per_s == 0.0 or elapsed_s == 0.0:
            return state
        decay = math.exp(-self.drift_rate_per_s * elapsed_s)
        return self.drift_target + (state - self.drift_target) * decay
