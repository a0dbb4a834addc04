"""Match-line sensing: converting analog currents to match outputs.

A CAM match line carries a current that encodes match quality; the
sense amplifier turns it into either a digital decision (TCAM) or a
normalised analog level (pCAM).  The amplifier contributes gain error,
offset, and input-referred noise — the last analog stage where
precision can be lost before the output re-enters the digital domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.device.variability import check_finite


@dataclass(frozen=True)
class SenseAmplifier:
    """A behavioural current-input sense amplifier.

    Parameters
    ----------
    gain_error:
        Multiplicative gain deviation from unity (0.01 = +1%).
    offset_a:
        Input-referred current offset [A].
    noise_a_rms:
        RMS input-referred current noise [A].
    energy_per_sense_j:
        Energy per sense operation.
    """

    gain_error: float = 0.0
    offset_a: float = 0.0
    noise_a_rms: float = 0.0
    energy_per_sense_j: float = 10e-15

    def __post_init__(self) -> None:
        check_finite(gain_error=self.gain_error, offset_a=self.offset_a,
                     noise_a_rms=self.noise_a_rms,
                     energy_per_sense_j=self.energy_per_sense_j)
        if self.noise_a_rms < 0:
            raise ValueError("noise must be non-negative")
        if self.energy_per_sense_j < 0:
            raise ValueError("sense energy must be non-negative")

    @classmethod
    def ideal(cls) -> "SenseAmplifier":
        """A noiseless, offset-free, zero-energy amplifier."""
        return cls(gain_error=0.0, offset_a=0.0, noise_a_rms=0.0,
                   energy_per_sense_j=0.0)

    def sense(self, current_a: float,
              rng: np.random.Generator | None = None) -> float:
        """Apply gain/offset/noise to a match-line current [A]."""
        value = current_a * (1.0 + self.gain_error) + self.offset_a
        if self.noise_a_rms > 0.0:
            generator = rng or np.random.default_rng()
            value += generator.normal(0.0, self.noise_a_rms)
        return value

    def normalise(self, current_a: float, full_scale_a: float,
                  rng: np.random.Generator | None = None) -> float:
        """Sense and normalise to [0, 1] of a full-scale current.

        This is how a pCAM match-line current becomes a probability:
        the full-scale current corresponds to a perfect deterministic
        match (p = pmax).
        """
        if full_scale_a <= 0:
            raise ValueError(
                f"full-scale current must be positive: {full_scale_a!r}")
        sensed = self.sense(current_a, rng)
        return min(1.0, max(0.0, sensed / full_scale_a))

    def threshold(self, current_a: float, threshold_a: float,
                  rng: np.random.Generator | None = None) -> bool:
        """Digital comparison against a reference (TCAM-style)."""
        return self.sense(current_a, rng) >= threshold_a
