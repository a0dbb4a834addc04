"""The aCAM bank: interval rows searched in one analog cycle.

A row matches iff **every** feature of the query falls inside that
row's stored interval — the per-cell responses multiply on the match
line, so one sub-threshold cell pulls the whole row down.  The bank
composes a :class:`~repro.core.pcam_array.PCAMArray` over the very
same cells — each aCAM row is stored as one product
:class:`~repro.core.pcam_pipeline.PCAMPipeline` of its interval cells —
which buys three things for free:

* the vectorised match kernel (one ``(n_queries, n_rows)`` pass);
* the robustness fault-injection surface
  (:class:`~repro.robustness.injector.FaultInjector` walks the pCAM
  rows' stages and never learns aCAM exists);
* the clean-twin discipline (``intended`` parameters survive faults).

Fault plans are seeded value objects so a campaign seed reproduces
the exact defect population; the differential row oracle reuses the
robustness :class:`~repro.robustness.oracle.DeviationReport` /
:class:`~repro.robustness.oracle.DegradationEnvelope` vocabulary to
flag out-of-envelope rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.acam.cell import ACAMCell, ACAMInterval, UNBOUNDED
from repro.acam.energy import ACAMEnergyModel, published_acam_energy
from repro.core.pcam_array import PCAMArray
from repro.core.pcam_pipeline import PCAMPipeline
from repro.energy.ledger import EnergyLedger
from repro.robustness.injector import FaultInjector, InjectionReport
from repro.robustness.models import FaultModel
from repro.robustness.oracle import DegradationEnvelope, DeviationReport

__all__ = ["ACAMArray", "ACAMBatchResult", "ACAMFaultPlan",
           "ACAMSearchResult"]


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


@dataclass(frozen=True)
class ACAMFaultPlan:
    """A seeded, reproducible defect population for one bank.

    ``rows=None`` exposes every row to the coin flip; a tuple of row
    indices restricts the plan to those rows (the targeted-defect
    legs of the golden suite).  Selection and fault materialisation
    both draw from one ``default_rng(seed)`` stream in row-major cell
    order, so a plan is a pure function of (bank geometry, plan).
    """

    model: FaultModel
    cell_fraction: float = 1.0
    seed: int = 0
    rows: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.cell_fraction <= 1.0:
            raise ValueError(
                f"cell fraction must be in [0, 1]: "
                f"{self.cell_fraction!r}")


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
    ledger / account:
        When a ledger is given, every search charges its energy to
        ``account`` — wiring the bank into a switch's
        :class:`~repro.energy.ledger.EnergyLedger` makes the joules
        show up in the pipeline's breakdown and the observability
        collectors with no further plumbing.
    """

    def __init__(self, fields: Sequence[str], *,
                 match_threshold: float = 0.99,
                 energy_model: ACAMEnergyModel | None = None,
                 ledger: EnergyLedger | None = None,
                 account: str = "acam.search") -> None:
        if not fields:
            raise ValueError("array needs at least one field")
        if len(set(fields)) != len(tuple(fields)):
            raise ValueError(f"duplicate fields: {tuple(fields)!r}")
        self.fields = tuple(fields)
        self.energy_model = energy_model or published_acam_energy()
        self.ledger = ledger
        self.account = account
        self._rows: list[tuple[ACAMCell, ...]] = []
        self._pcam = PCAMArray(
            self.fields, match_threshold=match_threshold,
            energy_per_cell_j=self.energy_model.cell_search_j,
            search_latency_s=self.energy_model.search_latency_s)
        self._searches = 0

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    @property
    def n_rows(self) -> int:
        """Number of stored interval rows."""
        return len(self._rows)

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

    @property
    def rows(self) -> tuple[tuple[ACAMCell, ...], ...]:
        """All stored rows, each a tuple of cells in field order."""
        return tuple(self._rows)

    def row(self, index: int) -> tuple[ACAMCell, ...]:
        """One stored row by index."""
        if not 0 <= index < len(self._rows):
            raise IndexError(f"row {index} out of range")
        return self._rows[index]

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
        cells = tuple(ACAMCell(interval) for interval in ordered)
        self._rows.append(cells)
        self._pcam.add(PCAMPipeline({field: cell.pcam for field, cell
                                     in zip(self.fields, cells)}))
        return len(self._rows) - 1

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
        if not self._rows:
            raise RuntimeError("cannot search an empty aCAM bank")
        probabilities = self._pcam.match_batch(columns)
        n_queries = probabilities.shape[0]
        best = np.argmax(probabilities, axis=1)
        mask = probabilities >= self._pcam.match_threshold
        any_match = mask.any(axis=1)
        first = np.where(any_match, np.argmax(mask, axis=1), -1)
        energy = self.energy_model.search_energy_j(
            self.n_rows, len(self.fields), n_queries)
        if self.ledger is not None:
            self.ledger.charge(self.account, energy)
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
    # Fault plans and the differential row oracle
    # ------------------------------------------------------------------
    def apply_fault_plan(self, plan: ACAMFaultPlan) -> InjectionReport:
        """Inject the plan's defect population; returns what was hit."""
        rng = np.random.default_rng(plan.seed)
        injector = FaultInjector(plan.model,
                                 cell_fraction=plan.cell_fraction,
                                 rng=rng)
        selected = set(plan.rows) if plan.rows is not None else None
        report = InjectionReport(model=plan.model.name)
        for index, row in enumerate(self._rows):
            if selected is not None and index not in selected:
                continue
            for field, cell in zip(self.fields, row):
                if plan.cell_fraction >= 1.0 \
                        or rng.random() < plan.cell_fraction:
                    injector.inject_cell(cell.pcam)
                    report.array_cells.append((index, field))
        return report

    def clear_faults(self) -> None:
        """Detach every fault and restore the intended intervals."""
        FaultInjector.clear_array(self._pcam)

    def clone_ideal(self) -> "ACAMArray":
        """A healthy copy rebuilt from every row's intended interval."""
        clone = ACAMArray(self.fields,
                          match_threshold=self._pcam.match_threshold,
                          energy_model=self.energy_model)
        for row in self._rows:
            clone.add_row([cell.intended_interval for cell in row])
        return clone

    def probe_grid(self, n_probes: int,
                   rng: np.random.Generator,
                   margin: float = 0.25) -> dict[str, np.ndarray]:
        """Seeded per-field probes covering every finite bound.

        Spans the union of each field's finite interval bounds,
        widened by ``margin`` of the span each side; a field with
        only wildcard cells probes [0, 1].  Sentinel bounds are
        excluded — probing at 1e30 exercises nothing.
        """
        if n_probes < 1:
            raise ValueError(f"need at least one probe: {n_probes!r}")
        probes: dict[str, np.ndarray] = {}
        for j, field in enumerate(self.fields):
            bounds = [b for row in self._rows
                      for b in (row[j].intended_interval.lo,
                                row[j].intended_interval.hi)
                      if b is not None and abs(b) < UNBOUNDED]
            lo, hi = (min(bounds), max(bounds)) if bounds else (0.0, 1.0)
            span = max(hi - lo, 1e-6)
            probes[field] = rng.uniform(lo - margin * span,
                                        hi + margin * span, n_probes)
        return probes

    def row_reports(self, probes: Mapping[str, np.ndarray]
                    ) -> list[DeviationReport]:
        """Per-row deviation of this bank against its healthy twin.

        Three legs per row, mirroring the robustness oracle: the
        clean twin batched (reference), the clean twin scalar
        (vectorisation check), and this — possibly faulted — bank
        batched.  Reduced into one
        :class:`~repro.robustness.oracle.DeviationReport` per row.
        """
        columns = self._as_columns(probes)
        ideal = self.clone_ideal()
        faulty = self._pcam.match_batch(columns)
        ideal_batch = ideal.pcam.match_batch(columns)
        n_probes = faulty.shape[0]
        reports = []
        for index in range(self.n_rows):
            word = ideal.pcam.word(index)
            scalar = np.array([
                word.evaluate({f: float(columns[f][i]) for f in columns})
                for i in range(n_probes)])
            deviation = faulty[:, index] - scalar
            reports.append(DeviationReport(
                n_probes=n_probes,
                mean_abs_error=float(np.mean(np.abs(deviation))),
                bias=float(np.mean(deviation)),
                max_abs_error=float(np.max(np.abs(deviation),
                                           initial=0.0)),
                rmse=float(np.sqrt(np.mean(deviation ** 2))),
                scalar_batch_max_diff=float(np.max(
                    np.abs(ideal_batch[:, index] - scalar),
                    initial=0.0))))
        return reports

    def out_of_envelope(self, probes: Mapping[str, np.ndarray],
                        envelope: DegradationEnvelope | None = None
                        ) -> tuple[int, ...]:
        """Row indices whose deviation breaks the declared envelope."""
        envelope = envelope or DegradationEnvelope()
        return tuple(index for index, report
                     in enumerate(self.row_reports(probes))
                     if not report.within(envelope))
