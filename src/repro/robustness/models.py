"""Parameterised fault models and their per-cell materialisations.

A :class:`FaultModel` is a *distribution* over defects: calling
:meth:`FaultModel.materialise` with a cell's intended parameters and a
seeded :class:`numpy.random.Generator` samples one concrete
:class:`CellFault` instance.  The split mirrors how real arrays fail —
the defect *class* is a property of the technology, the defect
*instance* is a property of one cell — and keeps every sample on the
caller's seeded stream (the RNG discipline PR 1 established).

Materialised faults plug into :meth:`repro.core.pcam_cell.PCAMCell.inject_fault`
and act through three hooks:

* ``faulted_params`` — a static perturbation of the programmed
  parameters (drift, programming variance);
* ``transform_input`` / ``transform_response`` — per-read signal-path
  perturbations (converter quantisation, read noise, stuck match
  lines);
* ``on_program`` — what reprogramming does to the fault: scrubs it
  (drift), resamples it (programming variance), or leaves it in place
  (stuck cells, converter resolution).

Models compose: :class:`CompositeFaultModel` chains several models on
one cell, applying parameter perturbations and signal transforms in
declaration order.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.core.pcam_cell import PCAMParams
from repro.crossbar.converters import DAC
from repro.device.variability import check_finite

__all__ = [
    "CellFault",
    "CompositeCellFault",
    "CompositeFaultModel",
    "ConductanceDrift",
    "ConverterQuantization",
    "FaultModel",
    "ProgrammingVariance",
    "StuckAtFault",
    "TransientReadNoise",
]


class CellFault:
    """One materialised defect attached to a single pCAM cell.

    The base class is the identity fault; subclasses override the
    hooks they need.  ``active`` turns False when a reprogramming pass
    clears the defect, at which point the cell drops the fault.
    """

    def __init__(self) -> None:
        self.active = True

    def faulted_params(self, intended: PCAMParams) -> PCAMParams:
        """The parameters the hardware actually realises."""
        return intended

    def on_program(self, intended: PCAMParams) -> PCAMParams:
        """Effect of a reprogramming pass; default: the fault survives."""
        return self.faulted_params(intended)

    def transform_input(self, values: np.ndarray) -> np.ndarray:
        """Perturb the applied search voltages (input DAC side)."""
        return values

    def transform_response(self, values: np.ndarray,
                           response: np.ndarray) -> np.ndarray:
        """Perturb the sensed match probabilities (read-out side)."""
        return response


class _StuckCell(CellFault):
    """Match line pinned at one rail regardless of the input."""

    def __init__(self, level: float) -> None:
        super().__init__()
        self.level = float(level)

    def transform_response(self, values: np.ndarray,
                           response: np.ndarray) -> np.ndarray:
        return np.full_like(response, self.level)


class _ThresholdDrift(CellFault):
    """All four thresholds translated by an accumulated drift delta.

    A reprogramming pass (refresh scrub) restores the intended state
    and clears the fault — drift is transient under program-and-verify.
    """

    def __init__(self, delta: float) -> None:
        super().__init__()
        self.delta = float(delta)

    def faulted_params(self, intended: PCAMParams) -> PCAMParams:
        return intended.shifted(self.delta)

    def on_program(self, intended: PCAMParams) -> PCAMParams:
        self.active = False
        return intended


class _ProgrammingJitter(CellFault):
    """Each threshold lands off-target; every program resamples.

    The jittered thresholds are sorted so the M1 <= M2 <= M3 <= M4
    invariant survives arbitrarily large variance; programmed slopes
    are preserved.
    """

    def __init__(self, sigma: float, rng: np.random.Generator) -> None:
        super().__init__()
        self.sigma = float(sigma)
        self._rng = rng
        self._deltas = self._sample()

    def _sample(self) -> np.ndarray:
        return self._rng.normal(0.0, self.sigma, size=4)

    def faulted_params(self, intended: PCAMParams) -> PCAMParams:
        thresholds = np.sort(np.array(
            [intended.m1, intended.m2, intended.m3, intended.m4])
            + self._deltas)
        return PCAMParams(m1=float(thresholds[0]), m2=float(thresholds[1]),
                          m3=float(thresholds[2]), m4=float(thresholds[3]),
                          sa=intended.sa, sb=intended.sb,
                          pmax=intended.pmax, pmin=intended.pmin)

    def on_program(self, intended: PCAMParams) -> PCAMParams:
        self._deltas = self._sample()
        return self.faulted_params(intended)


class _Quantizer(CellFault):
    """Finite converter resolution at the analog boundary.

    Search voltages pass through ``input_dac`` (its range is the
    converter's voltage range) and sensed responses through
    ``response_dac`` (range [0, 1]); each clamps into its range and
    snaps to the nearest of its levels.  Deterministic, and a property
    of the conversion circuit — reprogramming the cell does not remove
    it.
    """

    def __init__(self, input_dac: DAC, response_dac: DAC) -> None:
        super().__init__()
        self.input_dac = input_dac
        self.response_dac = response_dac

    def transform_input(self, values: np.ndarray) -> np.ndarray:
        dac = self.input_dac
        return dac.quantize_array((values - dac.v_min)
                                  / (dac.v_max - dac.v_min))

    def transform_response(self, values: np.ndarray,
                           response: np.ndarray) -> np.ndarray:
        return self.response_dac.quantize_array(response)


class _ReadNoise(CellFault):
    """Zero-mean Gaussian noise on every sensed response.

    Draws exactly one variate per evaluated element, in element order,
    so a batch read reproduces the stream a scalar loop would consume.
    """

    def __init__(self, sigma: float, rng: np.random.Generator) -> None:
        super().__init__()
        self.sigma = float(sigma)
        self._rng = rng

    def transform_response(self, values: np.ndarray,
                           response: np.ndarray) -> np.ndarray:
        if self.sigma == 0.0:
            return response
        return response + self._rng.normal(0.0, self.sigma,
                                           size=response.shape)


class CompositeCellFault(CellFault):
    """Several materialised defects on one cell, applied in order."""

    def __init__(self, faults: list[CellFault]) -> None:
        super().__init__()
        self.faults = list(faults)

    def faulted_params(self, intended: PCAMParams) -> PCAMParams:
        params = intended
        for fault in self.faults:
            params = fault.faulted_params(params)
        return params

    def on_program(self, intended: PCAMParams) -> PCAMParams:
        params = intended
        survivors = []
        for fault in self.faults:
            params = fault.on_program(params)
            if fault.active:
                survivors.append(fault)
        self.faults = survivors
        self.active = bool(survivors)
        return params

    def transform_input(self, values: np.ndarray) -> np.ndarray:
        for fault in self.faults:
            values = fault.transform_input(values)
        return values

    def transform_response(self, values: np.ndarray,
                           response: np.ndarray) -> np.ndarray:
        for fault in self.faults:
            response = fault.transform_response(values, response)
        return response


# ----------------------------------------------------------------------
# Fault model distributions
# ----------------------------------------------------------------------
class FaultModel(abc.ABC):
    """A parameterised distribution over cell defects."""

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Stable identifier used in campaign records and telemetry."""

    @abc.abstractmethod
    def materialise(self, intended: PCAMParams,
                    rng: np.random.Generator) -> CellFault:
        """Sample one concrete defect for a cell programmed with
        ``intended``, drawing only from ``rng``."""


@dataclass(frozen=True)
class StuckAtFault(FaultModel):
    """Cell permanently at one rail.

    ``state="lrs"`` models a forming failure into the low-resistance
    state: the match line always conducts, so the cell reads as a full
    match (``pmax``).  ``state="hrs"`` pins it at ``pmin``.
    """

    state: str = "lrs"

    def __post_init__(self) -> None:
        if self.state not in ("lrs", "hrs"):
            raise ValueError(
                f"state must be 'lrs' or 'hrs': {self.state!r}")

    @property
    def name(self) -> str:
        return f"stuck_at_{self.state}"

    def materialise(self, intended: PCAMParams,
                    rng: np.random.Generator) -> CellFault:
        level = intended.pmax if self.state == "lrs" else intended.pmin
        return _StuckCell(level)


@dataclass(frozen=True)
class ConductanceDrift(FaultModel):
    """Retention drift accumulated since the last programming pass.

    The drift delta is drawn once per cell from N(bias, scale) in
    threshold-voltage units; a reprogram (refresh scrub) clears it.
    """

    scale: float = 0.1
    bias: float = 0.0

    def __post_init__(self) -> None:
        check_finite(scale=self.scale, bias=self.bias)
        if self.scale < 0:
            raise ValueError(f"scale must be >= 0: {self.scale!r}")

    @property
    def name(self) -> str:
        return "conductance_drift"

    def materialise(self, intended: PCAMParams,
                    rng: np.random.Generator) -> CellFault:
        return _ThresholdDrift(rng.normal(self.bias, self.scale)
                               if self.scale > 0 else self.bias)


@dataclass(frozen=True)
class ProgrammingVariance(FaultModel):
    """Programming-pulse variance: thresholds land off-target.

    Every reprogram resamples the landing error, so the fault persists
    across refresh scrubs but its realisation changes.
    """

    sigma: float = 0.05

    def __post_init__(self) -> None:
        check_finite(sigma=self.sigma)
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0: {self.sigma!r}")

    @property
    def name(self) -> str:
        return "programming_variance"

    def materialise(self, intended: PCAMParams,
                    rng: np.random.Generator) -> CellFault:
        # Give the fault its own child stream so later draws do not
        # perturb the caller's injection stream.
        return _ProgrammingJitter(self.sigma,
                                  np.random.default_rng(rng.integers(2**63)))


@dataclass(frozen=True)
class ConverterQuantization(FaultModel):
    """Converter quantisation error at the analog-digital boundary.

    Both converters are the crossbar's
    :class:`~repro.crossbar.converters.DAC` model, built once at
    construction and shared by every materialised fault: ``dac_bits``
    over ``[v_lo, v_hi]`` for the search voltages and ``adc_bits``
    over [0, 1] for the sensed responses.  The DACs check the
    resolutions and that the range is not empty.
    """

    dac_bits: int = 6
    adc_bits: int = 6
    v_lo: float = -2.0
    v_hi: float = 4.0

    def __post_init__(self) -> None:
        check_finite(v_lo=self.v_lo, v_hi=self.v_hi)
        object.__setattr__(self, "_dacs", (
            DAC(bits=self.dac_bits, v_min=self.v_lo, v_max=self.v_hi),
            DAC(bits=self.adc_bits, v_min=0.0, v_max=1.0)))

    @property
    def name(self) -> str:
        return f"quantization_{self.dac_bits}b_dac_{self.adc_bits}b_adc"

    def materialise(self, intended: PCAMParams,
                    rng: np.random.Generator) -> CellFault:
        return _Quantizer(*self._dacs)


@dataclass(frozen=True)
class TransientReadNoise(FaultModel):
    """Cycle-to-cycle sensing noise, fresh on every read."""

    sigma: float = 0.02

    def __post_init__(self) -> None:
        check_finite(sigma=self.sigma)
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0: {self.sigma!r}")

    @property
    def name(self) -> str:
        return "transient_read_noise"

    def materialise(self, intended: PCAMParams,
                    rng: np.random.Generator) -> CellFault:
        return _ReadNoise(self.sigma,
                          np.random.default_rng(rng.integers(2**63)))


class CompositeFaultModel(FaultModel):
    """Several fault models striking the same cell together."""

    def __init__(self, models: "list[FaultModel] | tuple[FaultModel, ...]",
                 label: str | None = None) -> None:
        if not models:
            raise ValueError("composite needs at least one model")
        self.models = tuple(models)
        self._label = label

    @property
    def name(self) -> str:
        if self._label is not None:
            return self._label
        return "+".join(model.name for model in self.models)

    def materialise(self, intended: PCAMParams,
                    rng: np.random.Generator) -> CellFault:
        return CompositeCellFault(
            [model.materialise(intended, rng) for model in self.models])
