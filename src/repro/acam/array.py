"""The aCAM bank: interval rows searched in one analog cycle.

A row matches iff **every** feature of the query falls inside that
row's stored interval — the per-cell responses multiply on the match
line, so one sub-threshold cell pulls the whole row down.  The bank is
a :class:`~repro.core.pcam_array.PCAMArray` whose every row is one
product :class:`~repro.core.pcam_pipeline.PCAMPipeline` of plain pCAM
cells, each programmed with its interval's
:meth:`~repro.acam.cell.ACAMInterval.to_pcam_params`.  That
buys the vectorised match kernel (one ``(n_queries, n_rows)`` pass)
and makes :attr:`ACAMArray.pcam` the bank's one fault surface: faults,
the clean twin and the row oracle are the robustness layer's own
(:class:`~repro.robustness.injector.FaultInjector` on
``bank.pcam.word(i)`` or ``bank.pcam``,
:meth:`~repro.robustness.injector.FaultInjector.clear_array`,
:class:`~repro.robustness.oracle.DifferentialOracle` per word), and
this module imports none of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.acam.cell import ACAMInterval, UNBOUNDED
from repro.acam.energy import ACAMEnergyModel, published_acam_energy
from repro.core.pcam_array import PCAMArray
from repro.energy.ledger import EnergyLedger

__all__ = ["ACAM_SEARCH_ACCOUNT", "ACAMArray", "ACAMBatchResult",
           "ACAMSearchResult"]

#: Ledger account every bank search is charged to.
ACAM_SEARCH_ACCOUNT = "acam.search"


@dataclass(frozen=True)
class ACAMBatchResult:
    """Outcome of one batched search against every stored row.

    ``probabilities`` has shape ``(n_queries, n_rows)``;
    ``best_rows`` is the argmax row per query (ties resolve to the
    lowest row index, the priority-encoder convention);
    ``first_match_rows`` is the lowest row whose analog response
    clears the deterministic threshold, or -1 when none does.
    """

    probabilities: np.ndarray
    best_rows: np.ndarray
    best_probabilities: np.ndarray
    deterministic_mask: np.ndarray
    first_match_rows: np.ndarray
    energy_j: float
    latency_s: float

    def __len__(self) -> int:
        return int(self.probabilities.shape[0])


@dataclass(frozen=True)
class ACAMSearchResult:
    """Scalar view of one query searched against every stored row."""

    probabilities: np.ndarray
    best_row: int
    best_probability: float
    first_match_row: int
    energy_j: float
    latency_s: float

    @property
    def matched(self) -> bool:
        """True when some row matched deterministically."""
        return self.first_match_row >= 0


class ACAMArray:
    """A bank of interval rows over named feature fields.

    Parameters
    ----------
    fields:
        Ordered feature names; every row stores one interval cell per
        field, and matrix queries map columns to fields in this order.
    match_threshold:
        Analog response at or above which a row counts as a
        deterministic match.
    energy_model:
        Per-search energy model; defaults to the published figures.
    ledger:
        When a ledger is given, every search charges its energy to
        :data:`ACAM_SEARCH_ACCOUNT` — wiring the bank into a switch's
        :class:`~repro.energy.ledger.EnergyLedger` makes the joules
        show up in the pipeline's breakdown and the observability
        collectors with no further plumbing.
    """

    def __init__(self, fields: Sequence[str], *,
                 match_threshold: float = 0.99,
                 energy_model: ACAMEnergyModel | None = None,
                 ledger: EnergyLedger | None = None) -> None:
        if not fields:
            raise ValueError("array needs at least one field")
        if len(set(fields)) != len(tuple(fields)):
            raise ValueError(f"duplicate fields: {tuple(fields)!r}")
        self.fields = tuple(fields)
        self.energy_model = energy_model or published_acam_energy()
        self.ledger = ledger
        self._pcam = PCAMArray(
            self.fields, match_threshold=match_threshold,
            energy_per_cell_j=self.energy_model.cell_search_j,
            search_latency_s=self.energy_model.search_latency_s)
        self._searches = 0

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._pcam)

    @property
    def n_rows(self) -> int:
        """Number of stored interval rows."""
        return len(self._pcam)

    @property
    def match_threshold(self) -> float:
        """Deterministic-match response threshold."""
        return self._pcam.match_threshold

    @property
    def searches(self) -> int:
        """Number of queries searched so far."""
        return self._searches

    @property
    def pcam(self) -> PCAMArray:
        """The composed pCAM array (fault-injection surface)."""
        return self._pcam

    def add_row(self, intervals: "Sequence[ACAMInterval] | "
                                 "Mapping[str, ACAMInterval]") -> int:
        """Store one interval row; returns its row index."""
        if isinstance(intervals, Mapping):
            missing = [f for f in self.fields if f not in intervals]
            if missing:
                raise KeyError(f"row missing field {missing[0]!r}")
            ordered = tuple(intervals[f] for f in self.fields)
        else:
            ordered = tuple(intervals)
            if len(ordered) != len(self.fields):
                raise ValueError(
                    f"row arity {len(ordered)} != "
                    f"{len(self.fields)} fields")
        return self._pcam.add({field: interval.to_pcam_params()
                               for field, interval
                               in zip(self.fields, ordered)})

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def _as_columns(self, queries: "Mapping[str, np.ndarray] | np.ndarray"
                    ) -> dict[str, np.ndarray]:
        if isinstance(queries, Mapping):
            return {field: np.atleast_1d(
                np.asarray(queries[field], dtype=float))
                for field in self.fields if field in queries}
        matrix = np.atleast_2d(np.asarray(queries, dtype=float))
        if matrix.shape[1] != len(self.fields):
            raise ValueError(
                f"query matrix has {matrix.shape[1]} columns, "
                f"array has {len(self.fields)} fields")
        return {field: matrix[:, j]
                for j, field in enumerate(self.fields)}

    def search_batch(self, queries: "Mapping[str, np.ndarray] | np.ndarray"
                     ) -> ACAMBatchResult:
        """Search a query batch against every row in one cycle each.

        ``queries`` is either a mapping of per-field value arrays or
        an ``(n_queries, n_fields)`` matrix in field order.
        """
        columns = self._as_columns(queries)
        if not len(self._pcam):
            raise RuntimeError("cannot search an empty aCAM bank")
        probabilities = self._pcam.match_batch(columns)
        n_queries = probabilities.shape[0]
        best = probabilities.argmax(axis=1)
        mask = probabilities >= self._pcam.match_threshold
        any_match = mask.any(axis=1)
        first = np.where(any_match, mask.argmax(axis=1), -1)
        energy = self.energy_model.search_energy_j(
            self.n_rows, len(self.fields), n_queries)
        if self.ledger is not None:
            self.ledger.charge(ACAM_SEARCH_ACCOUNT, energy)
        self._searches += n_queries
        return ACAMBatchResult(
            probabilities=probabilities,
            best_rows=best,
            best_probabilities=probabilities[np.arange(n_queries), best],
            deterministic_mask=mask,
            first_match_rows=first,
            energy_j=energy,
            latency_s=self.energy_model.search_latency_s)

    def search(self, query: "Mapping[str, float] | Sequence[float]"
               ) -> ACAMSearchResult:
        """Search one query — literally a batch of one."""
        if isinstance(query, Mapping):
            columns: "Mapping[str, np.ndarray] | np.ndarray" = {
                field: np.asarray([float(query[field])])
                for field in self.fields if field in query}
        else:
            columns = np.asarray(query, dtype=float).reshape(1, -1)
        result = self.search_batch(columns)
        return ACAMSearchResult(
            probabilities=result.probabilities[0],
            best_row=int(result.best_rows[0]),
            best_probability=float(result.best_probabilities[0]),
            first_match_row=int(result.first_match_rows[0]),
            energy_j=result.energy_j,
            latency_s=result.latency_s)

    # ------------------------------------------------------------------
    # Probes for the robustness oracle
    # ------------------------------------------------------------------
    def probe_grid(self, n_probes: int,
                   rng: np.random.Generator,
                   margin: float = 0.25) -> dict[str, np.ndarray]:
        """Seeded per-field probes covering every finite bound.

        Spans the union of each field's finite interval bounds (the
        cells' intended ``[M2, M3]`` windows, so faults do not move
        the grid), widened by ``margin`` of the span each side; a
        field with only wildcard cells probes [0, 1].  Sentinel
        bounds are excluded — probing at 1e30 exercises nothing.
        """
        if n_probes < 1:
            raise ValueError(f"need at least one probe: {n_probes!r}")
        probes: dict[str, np.ndarray] = {}
        for field in self.fields:
            intended = [word.stage(field).intended_params
                        for word in self._pcam.words]
            bounds = [b for p in intended for b in (p.m2, p.m3)
                      if abs(b) < UNBOUNDED]
            lo, hi = (min(bounds), max(bounds)) if bounds else (0.0, 1.0)
            span = max(hi - lo, 1e-6)
            probes[field] = rng.uniform(lo - margin * span,
                                        hi + margin * span, n_probes)
        return probes
