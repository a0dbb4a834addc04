"""pCAM match-action memory: words of cells, rows of words.

Where :mod:`repro.core.pcam_pipeline` chains *stages in series* on one
feature vector (Figure 4b), the array is the *memory* view (Figure 4a
left): each stored word holds one policy as a set of per-field cells,
and a search evaluates the query against **every** stored word in one
cycle — like a TCAM, but returning a match *probability* per word
instead of a bit.

This is what lets cognitive functions "identify the closely matching
stored policies for an incoming query with zero [exact] matches"
(RQ1): the best-effort answer is the word with the highest analog
match probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.pcam_cell import CellStack, PCAMCell, PCAMParams

__all__ = ["PCAMWord", "PCAMArray", "ArraySearchResult",
           "BatchSearchResult"]


class PCAMWord:
    """One stored policy: a named tuple of pCAM cells, one per field."""

    def __init__(self, cells: Mapping[str, PCAMCell]) -> None:
        if not cells:
            raise ValueError("a word needs at least one cell")
        self._cells = dict(cells)
        self._stack = CellStack()

    @classmethod
    def from_params(cls, params: Mapping[str, PCAMParams]) -> "PCAMWord":
        """Build a word from per-field cell parameters."""
        return cls({name: PCAMCell(p) for name, p in params.items()})

    @property
    def fields(self) -> tuple[str, ...]:
        """The word's field names."""
        return tuple(self._cells)

    @property
    def cells(self) -> Mapping[str, PCAMCell]:
        """Read-only view of the word's cells, keyed by field.

        This is the fault-injection surface: robustness tooling walks
        it to attach :class:`~repro.robustness.models.CellFault`
        instances to individual cells.
        """
        return dict(self._cells)

    def clone_ideal(self) -> "PCAMWord":
        """A healthy copy programmed with each cell's intended params."""
        return PCAMWord({field: PCAMCell(cell.intended_params)
                         for field, cell in self._cells.items()})

    def cell(self, field: str) -> PCAMCell:
        """The cell storing one named field."""
        try:
            return self._cells[field]
        except KeyError:
            raise KeyError(
                f"no field {field!r}; fields: {self.fields}") from None

    def match(self, query: Mapping[str, float]) -> float:
        """Word match probability: product over the per-field cells."""
        batch = {field: np.array([float(query[field])])
                 for field in self._cells if field in query}
        return float(self.match_batch(batch)[0])

    def match_batch(self, queries: Mapping[str, np.ndarray]) -> np.ndarray:
        """Vectorised match: per-field arrays -> (batch,) probabilities.

        ``queries`` maps each field to an array of per-query values;
        every cell is evaluated in one stacked kernel call and the
        per-field responses are multiplied in the word's field order,
        exactly as :meth:`match` does one query at a time.
        """
        return _match_words(self._stack, (self,), queries)[:, 0]

    def deterministic_match(self, query: Mapping[str, float]) -> bool:
        """TCAM-compatible view: all fields inside their [M2, M3]."""
        return all(cell.deterministic_match(float(query[field])) is True
                   for field, cell in self._cells.items())

    def __len__(self) -> int:
        return len(self._cells)


def _match_words(stack: CellStack, words: Sequence[PCAMWord],
                 queries: Mapping[str, np.ndarray]) -> np.ndarray:
    """(n_queries, n_words) match probabilities of equal-length words.

    Every cell of every word is one row of a single stacked kernel
    call; each word then multiplies its field responses in its own
    field order.
    """
    fields = [field for word in words for field in word._cells]
    cells = [cell for word in words for cell in word._cells.values()]
    columns = {}
    for field in fields:
        if field not in columns:
            if field not in queries:
                raise KeyError(f"query missing field {field!r}")
            columns[field] = np.atleast_1d(
                np.asarray(queries[field], dtype=float))
    columns = dict(zip(columns, np.broadcast_arrays(*columns.values())))
    x = np.array([columns[field] for field in fields])
    count = x.shape[1]
    responses = stack.responses(cells, x, count).reshape(
        len(words), -1, count)
    probability = responses[:, 0].copy()
    for index in range(1, responses.shape[1]):
        probability *= responses[:, index]
    return np.ascontiguousarray(probability.T)


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
        self._words: list[PCAMWord] = []
        self._searches = 0
        self._stack = CellStack()

    def __len__(self) -> int:
        return len(self._words)

    @property
    def searches(self) -> int:
        """Number of searches performed."""
        return self._searches

    def add(self, word: PCAMWord | Mapping[str, PCAMParams]) -> int:
        """Store a policy word; returns its row index."""
        if not isinstance(word, PCAMWord):
            word = PCAMWord.from_params(word)
        if set(word.fields) != set(self.fields):
            raise ValueError(
                f"word fields {word.fields} != array fields {self.fields}")
        self._words.append(word)
        return len(self._words) - 1

    def word(self, index: int) -> PCAMWord:
        """One stored word by row index."""
        if not 0 <= index < len(self._words):
            raise IndexError(f"word {index} out of range")
        return self._words[index]

    @property
    def words(self) -> tuple[PCAMWord, ...]:
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
        the array's match lines.
        """
        batch_size = self._batch_length(queries)
        if not self._words:
            return np.zeros((batch_size, 0))
        return _match_words(self._stack, self._words, queries)

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
        cells = sum(len(word) for word in self._words)
        self._searches += n_queries
        return BatchSearchResult(
            probabilities=probabilities,
            best_indices=best,
            best_probabilities=best_probabilities,
            deterministic_mask=probabilities >= self.match_threshold,
            energy_j=n_queries * cells * self.energy_per_cell_j,
            latency_s=self.search_latency_s)

    def _batch_length(self, queries: Mapping[str, np.ndarray]) -> int:
        missing = [field for field in self.fields if field not in queries]
        if missing:
            raise KeyError(f"query missing field {missing[0]!r}")
        return max((np.atleast_1d(np.asarray(queries[field])).shape[0]
                    for field in self.fields), default=1)
