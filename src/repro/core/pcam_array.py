"""pCAM match-action memory: rows of pipelines searched in parallel.

Where :mod:`repro.core.pcam_pipeline` chains *stages in series* on one
feature vector (Figure 4b), the array is the *memory* view (Figure 4a
left): each stored word (row) holds one policy as a
:class:`~repro.core.pcam_pipeline.PCAMPipeline` with one stage cell
per field, and a search evaluates the query against **every** stored
row in one cycle — like a TCAM, but returning a match *probability*
per row instead of a bit.  Every cell of every row is evaluated in
one :class:`~repro.core.pcam_cell.CellStack` call; each row then
reduces its stage axis with its own
:data:`~repro.core.pcam_pipeline.BATCH_COMPOSITIONS` rule.

This is what lets cognitive functions "identify the closely matching
stored policies for an incoming query with zero [exact] matches"
(RQ1): the best-effort answer is the word with the highest analog
match probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.pcam_cell import PCAMParams
from repro.core.pcam_pipeline import PCAMPipeline, PipelineStack

__all__ = ["PCAMArray", "ArraySearchResult", "BatchSearchResult"]


@dataclass(frozen=True)
class ArraySearchResult:
    """Outcome of searching a query against all stored words."""

    probabilities: np.ndarray
    best_index: int | None
    best_probability: float
    deterministic_indices: tuple[int, ...]
    energy_j: float
    latency_s: float

    @property
    def hit(self) -> bool:
        """True when at least one word matched deterministically."""
        return bool(self.deterministic_indices)


@dataclass(frozen=True)
class BatchSearchResult:
    """Outcome of searching a batch of queries against all words.

    ``probabilities`` has shape (n_queries, n_words); ``best_indices``
    is -1 for queries searched against an empty array.
    """

    probabilities: np.ndarray
    best_indices: np.ndarray
    best_probabilities: np.ndarray
    deterministic_mask: np.ndarray
    energy_j: float
    latency_s: float

    def __len__(self) -> int:
        return int(self.probabilities.shape[0])


class PCAMArray:
    """A bank of stored pCAM words searched in parallel.

    Each stored word (row) is a :class:`PCAMPipeline` with one stage
    per field, in any order, reduced by its own composition rule.

    Parameters
    ----------
    fields:
        Ordered field names every stored word must provide.
    match_threshold:
        Probability at or above which a word counts as a deterministic
        match for the digital-compatible output.
    energy_per_cell_j:
        Read energy charged per cell per search.  Defaults to the
        dataset's low-energy analog read (0.01 fJ); swap in a value
        measured from :func:`repro.device.energy.energy_statistics`
        for a calibrated run.
    """

    def __init__(self, fields: Sequence[str], *,
                 match_threshold: float = 0.99,
                 energy_per_cell_j: float = 1e-17,
                 search_latency_s: float = 1e-9) -> None:
        if not fields:
            raise ValueError("array needs at least one field")
        if not 0.0 < match_threshold <= 1.0:
            raise ValueError(
                f"match threshold must be in (0, 1]: {match_threshold!r}")
        self.fields = tuple(fields)
        self.match_threshold = match_threshold
        self.energy_per_cell_j = energy_per_cell_j
        self.search_latency_s = search_latency_s
        self._words: list[PCAMPipeline] = []
        self._searches = 0
        #: Every row's cells stacked for one kernel call; rebuilt on
        #: the first match after the rows change.
        self._plan: PipelineStack | None = None

    def __len__(self) -> int:
        return len(self._words)

    @property
    def searches(self) -> int:
        """Number of searches performed."""
        return self._searches

    def add(self, word: PCAMPipeline | Mapping[str, PCAMParams]) -> int:
        """Store a policy word; returns its row index.

        A mapping of per-field params becomes a product pipeline.
        """
        if not isinstance(word, PCAMPipeline):
            word = PCAMPipeline.from_params(word)
        if set(word.stage_names) != set(self.fields):
            raise ValueError(f"word fields {word.stage_names} != "
                             f"array fields {self.fields}")
        self._words.append(word)
        self._plan = None
        return len(self._words) - 1

    def word(self, index: int) -> PCAMPipeline:
        """One stored word by row index."""
        if not 0 <= index < len(self._words):
            raise IndexError(f"word {index} out of range")
        return self._words[index]

    @property
    def words(self) -> tuple[PCAMPipeline, ...]:
        """All stored words in row order (fault-injection surface)."""
        return tuple(self._words)

    def clone_ideal(self) -> "PCAMArray":
        """A healthy copy of the array: same geometry and thresholds,
        every cell reprogrammed with its intended parameters.

        The differential oracle searches the clone alongside the
        (possibly faulted) original to measure match-probability error.
        """
        clone = PCAMArray(self.fields,
                          match_threshold=self.match_threshold,
                          energy_per_cell_j=self.energy_per_cell_j,
                          search_latency_s=self.search_latency_s)
        for word in self._words:
            clone.add(word.clone_ideal())
        return clone

    def remove(self, index: int) -> None:
        """Delete a stored word by row index."""
        if not 0 <= index < len(self._words):
            raise IndexError(f"word {index} out of range")
        del self._words[index]
        self._plan = None

    def search(self, query: Mapping[str, float]) -> ArraySearchResult:
        """Match the query against every stored word in one cycle."""
        if not self._words:
            return ArraySearchResult(
                probabilities=np.zeros(0), best_index=None,
                best_probability=0.0, deterministic_indices=(),
                energy_j=0.0, latency_s=self.search_latency_s)
        batch = {field: np.array([float(query[field])])
                 for field in self.fields if field in query}
        result = self.search_batch(batch)
        probabilities = result.probabilities[0]
        best = int(result.best_indices[0])
        deterministic = tuple(
            int(i) for i in np.flatnonzero(result.deterministic_mask[0]))
        return ArraySearchResult(
            probabilities=probabilities,
            best_index=best,
            best_probability=float(result.best_probabilities[0]),
            deterministic_indices=deterministic,
            energy_j=result.energy_j,
            latency_s=self.search_latency_s)

    def match_batch(self, queries: Mapping[str, np.ndarray]) -> np.ndarray:
        """Match probabilities of a query batch against every word.

        Returns a (n_queries, n_words) matrix: row ``i`` holds query
        ``i``'s match probability against each stored word — the
        software analogue of applying a burst of search voltages to
        the array's match lines.  Column ``j`` equals word ``j``'s own
        :meth:`~PCAMPipeline.evaluate_batch`.
        """
        batch_size = self._batch_length(queries)
        if not self._words:
            return np.zeros((batch_size, 0))
        columns = dict(zip(self.fields, np.broadcast_arrays(*(
            np.atleast_1d(np.asarray(queries[field], dtype=float))
            for field in self.fields))))
        if self._plan is None:
            self._plan = PipelineStack(self._words)
        return self._plan.match(np.array(
            [columns[field] for field in self._plan.fields])).T

    def search_batch(self, queries: Mapping[str, np.ndarray]
                     ) -> BatchSearchResult:
        """Search a whole query batch; one cycle's worth per query."""
        probabilities = self.match_batch(queries)
        n_queries, n_words = probabilities.shape
        if n_words:
            best = np.argmax(probabilities, axis=1)
            best_probabilities = probabilities[
                np.arange(n_queries), best]
        else:
            best = np.full(n_queries, -1, dtype=int)
            best_probabilities = np.zeros(n_queries)
        self._searches += n_queries
        return BatchSearchResult(
            probabilities=probabilities,
            best_indices=best,
            best_probabilities=best_probabilities,
            deterministic_mask=probabilities >= self.match_threshold,
            energy_j=n_queries * sum(map(len, self._words))
            * self.energy_per_cell_j,
            latency_s=self.search_latency_s)

    def _batch_length(self, queries: Mapping[str, np.ndarray]) -> int:
        missing = [field for field in self.fields if field not in queries]
        if missing:
            raise KeyError(f"query missing field {missing[0]!r}")
        return max((np.atleast_1d(np.asarray(queries[field])).shape[0]
                    for field in self.fields), default=1)
