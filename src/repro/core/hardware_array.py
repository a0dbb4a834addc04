"""A pCAM policy array mapped onto a physical crossbar.

:class:`~repro.core.pcam_array.PCAMArray` is the functional model of
the match-action memory; this module *realises* it on the analog
circuit substrate of :mod:`repro.crossbar`: every stored word occupies
two crossbar columns (the low- and high-threshold devices of its
cells), queries are applied through a DAC as wordline voltages, the
column currents are sensed, thresholds decoded, and the per-word match
probability computed — with all of the substrate's imperfections
(quantization, IR drop, sneak paths, crosstalk, read noise) shaping
the answer and every operation charged to the energy ledger.

This is the piece RQ2 reasons about: the same placement the
:class:`~repro.core.compiler.CognitiveCompiler` budgets for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.pcam_cell import PCAMCell, PCAMParams
from repro.crossbar.array import Crossbar
from repro.crossbar.converters import DAC
from repro.crossbar.losses import LineLossModel
from repro.crossbar.sensing import SenseAmplifier
from repro.device.memristor import MemristorParams
from repro.device.variability import VariabilityModel
from repro.energy.ledger import ACCOUNT_COMPUTE, ACCOUNT_CONVERSION, \
    EnergyLedger

__all__ = ["CrossbarPCAMArray", "HardwareSearchResult"]


@dataclass(frozen=True)
class HardwareSearchResult:
    """Outcome of one crossbar-level pCAM search."""

    probabilities: np.ndarray
    best_index: int | None
    energy_j: float
    latency_s: float

    @property
    def best_probability(self) -> float:
        """Match probability of the best stored word (0 on miss)."""
        if self.best_index is None:
            return 0.0
        return float(self.probabilities[self.best_index])


class CrossbarPCAMArray:
    """Stored pCAM policies on an analog crossbar.

    Layout: rows = fields (one wordline per field), columns = 2 per
    stored word (``lo`` thresholds, ``hi`` thresholds).  Thresholds
    are encoded as normalised conductances over the field's voltage
    range, exactly like :class:`~repro.core.device_cell.DevicePCAMCell`
    but batched into one array.

    Parameters
    ----------
    fields:
        Ordered field names; fixes the row count.
    v_range:
        Input-voltage range thresholds are encoded over.
    max_words:
        Column budget / 2.
    dac:
        Input converter (one per wordline, shared spec).
    losses, variability, sense:
        Substrate imperfection models.
    ledger:
        Energy ledger (conversion + compute accounts).
    """

    #: Read pulse width per search.
    READ_DURATION_S = 1e-9

    def __init__(self, fields: Sequence[str],
                 v_range: tuple[float, float] = (-2.0, 4.0),
                 max_words: int = 64,
                 device_params: MemristorParams | None = None,
                 dac: DAC | None = None,
                 losses: LineLossModel | None = None,
                 variability: VariabilityModel | None = None,
                 sense: SenseAmplifier | None = None,
                 ledger: EnergyLedger | None = None,
                 rng: np.random.Generator | None = None) -> None:
        if not fields:
            raise ValueError("array needs at least one field")
        if max_words < 1:
            raise ValueError(f"max_words must be >= 1: {max_words!r}")
        v_lo, v_hi = v_range
        if v_lo >= v_hi:
            raise ValueError(f"invalid voltage range: {v_range!r}")
        self.fields = tuple(fields)
        self.v_range = (float(v_lo), float(v_hi))
        self.max_words = max_words
        self.device_params = device_params or MemristorParams()
        self.dac = dac or DAC(bits=8, v_min=v_lo, v_max=v_hi)
        self.sense = sense or SenseAmplifier.ideal()
        self.ledger = ledger if ledger is not None else EnergyLedger()
        self._rng = rng or np.random.default_rng()
        self._crossbar = Crossbar(
            n_rows=len(self.fields), n_cols=2 * max_words,
            params=self.device_params,
            losses=losses or LineLossModel.ideal(),
            variability=variability or VariabilityModel.ideal(),
            rng=self._rng)
        self._words: list[dict[str, PCAMParams]] = []
        self._searches = 0

    def __len__(self) -> int:
        return len(self._words)

    @property
    def searches(self) -> int:
        """Number of analog searches performed."""
        return self._searches

    # ------------------------------------------------------------------
    # Threshold encoding (log-conductance domain, cf. DevicePCAMCell)
    # ------------------------------------------------------------------
    def _normalise(self, threshold_v: float) -> float:
        v_lo, v_hi = self.v_range
        return (threshold_v - v_lo) / (v_hi - v_lo)

    def _denormalise(self, fraction: float) -> float:
        v_lo, v_hi = self.v_range
        return v_lo + fraction * (v_hi - v_lo)

    def _conductance_for(self, threshold_v: float) -> float:
        """Target conductance encoding a threshold (log domain)."""
        fraction = min(1.0, max(0.0, self._normalise(threshold_v)))
        g_min, g_max = self._crossbar.conductance_bounds
        log_g = math.log(g_min) + fraction * (math.log(g_max)
                                              - math.log(g_min))
        return math.exp(log_g)

    def _threshold_from_ratio(self, ratio: float) -> float:
        """Decode a conductance ratio back to a threshold voltage."""
        if ratio <= 0.0:
            return self._denormalise(0.0)
        window = math.log(self.device_params.resistance_window)
        fraction = min(1.0, max(0.0,
                                1.0 + math.log(min(1.0, ratio)) / window))
        return self._denormalise(fraction)

    # ------------------------------------------------------------------
    # Programming
    # ------------------------------------------------------------------
    def add(self, word: Mapping[str, PCAMParams]) -> int:
        """Program one policy word into two crossbar columns."""
        if set(word) != set(self.fields):
            raise ValueError(
                f"word fields {sorted(word)} != array fields "
                f"{sorted(self.fields)}")
        if len(self._words) >= self.max_words:
            raise ValueError(f"array full ({self.max_words} words)")
        for name, params in word.items():
            if params.m1 < self.v_range[0] or params.m4 > self.v_range[1]:
                raise ValueError(
                    f"field {name!r} thresholds outside encodable "
                    f"range {self.v_range}")
        index = len(self._words)
        self._words.append(dict(word))
        conductances = self._crossbar.conductances_copy()
        for row, field in enumerate(self.fields):
            params = word[field]
            conductances[row, 2 * index] = self._conductance_for(params.m2)
            conductances[row, 2 * index + 1] = \
                self._conductance_for(params.m3)
        write_energy = self._crossbar.program(conductances)
        self.ledger.charge(ACCOUNT_COMPUTE, write_energy)
        return index

    def word_params(self, index: int) -> dict[str, PCAMParams]:
        """The programmed parameters of one stored word."""
        if not 0 <= index < len(self._words):
            raise IndexError(f"word {index} out of range")
        return dict(self._words[index])

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search(self, query: Mapping[str, float]) -> HardwareSearchResult:
        """One analog search of the query against every stored word.

        The query drives all wordlines at once (through the DAC); one
        crossbar operation yields every stored word's threshold
        responses in parallel — the single-cycle massively-parallel
        search that makes CAMs attractive.
        """
        missing = [field for field in self.fields if field not in query]
        if missing:
            raise KeyError(f"query missing fields: {missing}")
        if not self._words:
            return HardwareSearchResult(probabilities=np.zeros(0),
                                        best_index=None, energy_j=0.0,
                                        latency_s=self.READ_DURATION_S)
        # DAC conversion of every field's voltage in one call; fmax
        # before fmin reads a NaN field as v_lo.
        v_lo, v_hi = self.v_range
        raw = np.array([float(query[field]) for field in self.fields])
        clamped = np.fmin(np.fmax(raw, v_lo), v_hi)
        voltages = self.dac.quantize_array(
            (clamped - self.dac.v_min) / (self.dac.v_max - self.dac.v_min))
        for _ in self.fields:
            self.ledger.charge(ACCOUNT_CONVERSION,
                               self.dac.energy_per_conversion_j)

        result = self._crossbar.matvec(voltages, self.READ_DURATION_S)
        self.ledger.charge(ACCOUNT_COMPUTE, result.energy_j)

        # One lossless reference read for the whole search; the decode
        # loop below only indexes into it per column.
        ideal_totals = self._crossbar.ideal_matvec(voltages)
        probabilities = np.empty(len(self._words))
        for index, word in enumerate(self._words):
            probabilities[index] = self._word_probability(
                index, word, voltages, result.currents_a, ideal_totals)
        best = int(np.argmax(probabilities))
        self._searches += 1
        return HardwareSearchResult(
            probabilities=probabilities, best_index=best,
            energy_j=result.energy_j, latency_s=result.duration_s)

    def _word_probability(self, index: int,
                          word: Mapping[str, PCAMParams],
                          voltages: np.ndarray,
                          currents: np.ndarray,
                          ideal_totals: np.ndarray) -> float:
        """Decode one word's thresholds and evaluate its match.

        The column currents are sums over fields; per-field currents
        are recovered from the programmed conductances and applied
        voltages (the sensing circuit of a real aCAM separates fields
        with per-cell match lines — the behavioural shortcut here
        keeps the same information with the array-level noise of the
        shared read.  The crossbar's *measured* total modulates the
        decode so array non-idealities propagate).
        """
        conductances = self._crossbar.conductances
        probability = 1.0
        for row, field in enumerate(self.fields):
            params = word[field]
            value = float(voltages[row])
            scale = 1.0
            for offset, anchor in ((0, "m2"), (1, "m3")):
                column = 2 * index + offset
                ideal_total = float(ideal_totals[column])
                measured_total = float(currents[column])
                if ideal_total > 0.0:
                    scale = measured_total / ideal_total
                g_cell = conductances[row, column]
                _, g_max = self._crossbar.conductance_bounds
                ratio = (g_cell / g_max) * scale
                decoded = self._threshold_from_ratio(
                    self.sense.sense(ratio, self._rng))
                delta = decoded - getattr(params, anchor)
                if anchor == "m2":
                    m1, m2 = params.m1 + delta, params.m2 + delta
                else:
                    m3, m4 = params.m3 + delta, params.m4 + delta
            if not (m1 < m2 <= m3 < m4):
                probability *= params.pmin
                continue
            jittered = PCAMCell(PCAMParams(
                m1=m1, m2=m2, m3=m3, m4=m4, sa=params.sa, sb=params.sb,
                pmax=params.pmax, pmin=params.pmin))
            probability *= jittered.response(value)
        return probability
