"""Behavioural model of the Nb-doped SrTiO3 memristor.

The device is the substrate of every analog computation in this
reproduction: a non-volatile, programmable resistor whose conductance
spans many decades between a high-resistance state (HRS) and a
low-resistance state (LRS).

The model has three ingredients:

1. **Static conductance law.**  The internal state ``s`` in [0, 1]
   interpolates the resistance *exponentially* between ``r_off`` (HRS,
   s = 0) and ``r_on`` (LRS, s = 1), matching the decades-wide window of
   the Schottky-interface device.  The I-V curve is rectifying and
   super-linear in forward bias (image-force barrier lowering), and
   strongly suppressed in reverse bias.
2. **Pulse-programming dynamics.**  Voltage pulses above a threshold
   move the state with a sinh() drive and a soft window function — the
   standard behavioural form for interface-type memristive switching.
3. **Stochastic non-idealities** from
   :class:`repro.device.variability.VariabilityModel`.

Anchoring: at the reference read condition (4 V, 1 ns) the default
parameters reproduce the paper's extreme read energies exactly —
0.16 nJ/bit for the LRS and 0.01 fJ/bit for the HRS (Sec. 6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.device.variability import VariabilityModel, check_finite


@dataclass(frozen=True)
class MemristorParams:
    """Static and dynamic parameters of the device model.

    Default values anchor the simulated chip to the energy figures the
    paper reports for the Nb:SrTiO3 dataset.
    """

    #: LRS resistance at the reference read voltage [ohm].
    r_on: float = 100.0
    #: HRS resistance at the reference read voltage [ohm].
    r_off: float = 1.6e9
    #: Reference read voltage at which r_on / r_off are defined [V].
    v_reference: float = 4.0
    #: Forward-bias super-linearity coefficient [1/V].  0 = ohmic.
    forward_gamma: float = 0.45
    #: Reverse-bias rectification ratio (reverse current suppression).
    rectification: float = 0.02
    #: Minimum voltage magnitude that moves the state [V].
    v_threshold: float = 1.0
    #: State-motion rate prefactor [1/s].
    k_program: float = 2.0e8
    #: Characteristic voltage of the sinh() programming drive [V].
    v_characteristic: float = 1.2
    #: Window exponent for soft state saturation.
    window_exponent: float = 2.0

    def __post_init__(self) -> None:
        check_finite(**{name: getattr(self, name)
                        for name in self.__dataclass_fields__})
        if self.r_on <= 0 or self.r_off <= 0:
            raise ValueError("resistances must be positive")
        if self.r_off <= self.r_on:
            raise ValueError(
                f"r_off ({self.r_off}) must exceed r_on ({self.r_on})")
        if self.v_reference <= 0:
            raise ValueError("reference voltage must be positive")
        if not 0 <= self.rectification <= 1:
            raise ValueError("rectification must be in [0, 1]")

    @property
    def resistance_window(self) -> float:
        """r_off / r_on — the dynamic range of the device."""
        return self.r_off / self.r_on


@dataclass(frozen=True)
class ReadResult:
    """Outcome of a single read operation."""

    voltage_v: float
    current_a: float
    duration_s: float

    @property
    def energy_j(self) -> float:
        """Dissipated energy ``|V * I| * t`` for this read [J]."""
        return abs(self.voltage_v * self.current_a) * self.duration_s

    @property
    def power_w(self) -> float:
        """Instantaneous dissipated power [W]."""
        return abs(self.voltage_v * self.current_a)


class NbSTOMemristor:
    """A single simulated Nb:SrTiO3 memristive junction.

    Parameters
    ----------
    params:
        Device parameters; defaults anchor the paper's energy figures.
    state:
        Initial normalised state in [0, 1] (0 = HRS, 1 = LRS).
    variability:
        Noise model; defaults to moderate realistic noise.  Use
        :meth:`VariabilityModel.ideal` for deterministic behaviour.
    rng:
        Random generator for the noise processes.  Pass a seeded
        generator for reproducible experiments.
    """

    def __init__(self, params: MemristorParams | None = None,
                 state: float = 0.0,
                 variability: VariabilityModel | None = None,
                 rng: np.random.Generator | None = None) -> None:
        self.params = params or MemristorParams()
        self.variability = variability or VariabilityModel()
        self._rng = rng or np.random.default_rng()
        self._device_factor = self.variability.sample_device_factor(self._rng)
        self._state = 0.0
        self.state = state  # validated through the property setter
        self._reads = 0
        self._pulses = 0

    # ------------------------------------------------------------------
    # State management
    # ------------------------------------------------------------------
    @property
    def state(self) -> float:
        """Normalised memristive state in [0, 1]."""
        return self._state

    @state.setter
    def state(self, value: float) -> None:
        """Normalised memristive state in [0, 1] (0 = HRS, 1 = LRS)."""
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"state must be in [0, 1]: {value!r}")
        self._state = float(value)

    @property
    def reads(self) -> int:
        """Number of read operations performed."""
        return self._reads

    @property
    def pulses(self) -> int:
        """Number of programming pulses applied."""
        return self._pulses

    # ------------------------------------------------------------------
    # Static electrical behaviour
    # ------------------------------------------------------------------
    def resistance(self) -> float:
        """Resistance at the reference read voltage for the current state.

        Exponential (log-linear) interpolation between HRS and LRS,
        scaled by the per-device fabrication factor.
        """
        p = self.params
        log_r = (math.log(p.r_off)
                 + self._state * (math.log(p.r_on) - math.log(p.r_off)))
        return math.exp(log_r) / self._device_factor

    def conductance(self) -> float:
        """Conductance at the reference read voltage [S]."""
        return 1.0 / self.resistance()

    def current(self, voltage_v: float, *, noisy: bool = False) -> float:
        """Current through the device at ``voltage_v`` [A].

        Forward bias (v > 0) is super-linear:
        ``I = G * v * exp(gamma * (v - v_ref))``, normalised so that at
        the reference voltage the device presents exactly its nominal
        resistance.  Reverse bias is suppressed by the rectification
        ratio, modelling the Schottky diode behaviour of the junction.
        """
        if voltage_v == 0.0:
            return 0.0
        p = self.params
        conductance = self.conductance()
        magnitude = abs(voltage_v)
        shape = math.exp(p.forward_gamma * (magnitude - p.v_reference))
        current = conductance * magnitude * shape
        if voltage_v < 0:
            current *= p.rectification
        if noisy:
            current *= self.variability.sample_read_factor(self._rng)
        return math.copysign(current, voltage_v)

    def read(self, voltage_v: float, duration_s: float = 1e-9, *,
             noisy: bool = True) -> ReadResult:
        """Perform a read pulse and return current plus dissipated energy.

        Reads are non-destructive: the read voltage is assumed below the
        programming threshold in magnitude or too short to move state
        appreciably (true for 1 ns reads on this device).
        """
        if duration_s <= 0:
            raise ValueError(f"duration must be positive: {duration_s!r}")
        current = self.current(voltage_v, noisy=noisy)
        self._reads += 1
        return ReadResult(voltage_v=voltage_v, current_a=current,
                          duration_s=duration_s)

    # ------------------------------------------------------------------
    # Programming dynamics
    # ------------------------------------------------------------------
    def _window(self, drive_positive: bool) -> float:
        """Soft saturation window: motion slows near the state rails."""
        p = self.params
        if drive_positive:
            return (1.0 - self._state) ** p.window_exponent
        return self._state ** p.window_exponent

    def state_velocity(self, voltage_v: float) -> float:
        """ds/dt at the given applied voltage [1/s].

        Zero below the programming threshold; otherwise a sinh() drive
        scaled by the saturation window.  Positive voltage moves the
        device toward the LRS (s -> 1), negative toward the HRS.
        """
        p = self.params
        magnitude = abs(voltage_v)
        if magnitude <= p.v_threshold:
            return 0.0
        overdrive = (magnitude - p.v_threshold) / p.v_characteristic
        rate = p.k_program * math.sinh(overdrive)
        rate *= self._window(drive_positive=voltage_v > 0)
        return math.copysign(rate, voltage_v)

    def apply_pulse(self, voltage_v: float, width_s: float,
                    substeps: int = 32) -> float:
        """Apply a programming pulse; returns the dissipated energy [J].

        Integrates the state equation with explicit Euler substeps and
        charges the Joule energy of the pulse at the *average* of the
        start and end conductances (trapezoid approximation).
        """
        if width_s <= 0:
            raise ValueError(f"pulse width must be positive: {width_s!r}")
        if substeps < 1:
            raise ValueError(f"substeps must be >= 1: {substeps!r}")
        current_start = abs(self.current(voltage_v))
        dt = width_s / substeps
        for _ in range(substeps):
            velocity = self.state_velocity(voltage_v)
            if velocity == 0.0:
                break
            self._state = min(1.0, max(0.0, self._state + velocity * dt))
        current_end = abs(self.current(voltage_v))
        self._pulses += 1
        average_power = abs(voltage_v) * 0.5 * (current_start + current_end)
        return average_power * width_s

    def program_state(self, target: float, *, tolerance: float = 0.01,
                      max_pulses: int = 200,
                      pulse_width_s: float = 10e-9) -> float:
        """Closed-loop program-and-verify to ``target`` state.

        Applies set/reset pulses with amplitude proportional to the
        remaining error until the state is within ``tolerance`` of the
        target.  Returns the total programming energy [J].

        Raises :class:`RuntimeError` if the loop does not converge
        within ``max_pulses`` — on the real chip this signals a stuck
        device.
        """
        if not 0.0 <= target <= 1.0:
            raise ValueError(f"target must be in [0, 1]: {target!r}")
        if tolerance <= 0:
            raise ValueError(f"tolerance must be positive: {tolerance!r}")
        p = self.params
        energy = 0.0
        for _ in range(max_pulses):
            error = target - self._state
            if abs(error) <= tolerance:
                return energy
            # Overdrive grows with remaining error but stays gentle to
            # avoid overshoot near the target.
            overdrive = p.v_characteristic * min(1.0, 4.0 * abs(error))
            amplitude = p.v_threshold + max(0.05, overdrive)
            voltage = math.copysign(amplitude, error)
            # Adaptive pulse width: aim to cover ~60% of the remaining
            # error per pulse given the predicted state velocity.  This
            # compensates the saturation window slowing motion near the
            # rails, and prevents overshoot near the target.
            velocity = abs(self.state_velocity(voltage))
            if velocity > 0.0:
                width = min(100.0 * pulse_width_s,
                            max(1e-12, 0.6 * abs(error) / velocity))
            else:
                width = pulse_width_s
            energy += self.apply_pulse(voltage, width)
        raise RuntimeError(
            f"program_state did not converge to {target} "
            f"(state={self._state:.4f}) within {max_pulses} pulses")

    def relax(self, elapsed_s: float) -> None:
        """Apply retention drift for ``elapsed_s`` seconds."""
        self._state = self.variability.drift_state(self._state, elapsed_s)

    def __repr__(self) -> str:
        return (f"NbSTOMemristor(state={self._state:.3f}, "
                f"resistance={self.resistance():.3e} ohm)")
