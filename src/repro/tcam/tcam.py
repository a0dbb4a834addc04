"""Behavioural ternary content-addressable memory (TCAM).

The digital baseline of the paper: packet header fields are matched
against stored ternary rules (0 / 1 / don't-care) in one clock cycle,
every search activating *all* match lines.  The output is strictly
binary — match or mismatch — with no notion of a partial match, which
is exactly the expressiveness limitation the pCAM removes.

Energy model: each search charges ``energy_per_bit_j`` for every stored
cell (the whole array participates in a search), split between data
movement and computation with the ~90/10 ratio the paper cites for
transistor-based designs (Figure 1, [23, 41]).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from repro.energy.ledger import (
    ACCOUNT_COMPUTE,
    ACCOUNT_MOVEMENT,
    EnergyLedger,
    Quantum,
)
from repro.energy.units import femtojoules, nanoseconds

#: Representative transistor TCAM figures (Arsovski et al. [2]).
DEFAULT_ENERGY_PER_BIT_J = femtojoules(0.58)
DEFAULT_SEARCH_LATENCY_S = nanoseconds(1.0)
#: Fraction of digital search energy spent moving data between the
#: separate storage and computation units (paper Figure 1: "upto 90%").
DEFAULT_MOVEMENT_FRACTION = 0.9

#: Wildcard character in ternary pattern strings.
WILDCARD = "x"
#: Bits per packed key and storage word.
WORD_BITS = 64


@dataclass(frozen=True)
class TernaryPattern:
    """A stored ternary word: per-bit value and care mask.

    ``bits[i]`` is meaningful only where ``care[i]`` is True; elsewhere
    the bit is a don't-care (``x``).
    """

    bits: np.ndarray
    care: np.ndarray

    def __post_init__(self) -> None:
        if self.bits.shape != self.care.shape or self.bits.ndim != 1:
            raise ValueError("bits and care must be 1-D and aligned")

    @property
    def width(self) -> int:
        """Word width in bits."""
        return len(self.bits)

    @classmethod
    def parse(cls, text: str) -> "TernaryPattern":
        """Parse a pattern like ``"10x1"`` (``x`` = don't-care)."""
        if not text:
            raise ValueError("pattern must be non-empty")
        bits = np.zeros(len(text), dtype=bool)
        care = np.ones(len(text), dtype=bool)
        for index, char in enumerate(text.lower()):
            if char == "1":
                bits[index] = True
            elif char == "0":
                bits[index] = False
            elif char == WILDCARD or char == "*":
                care[index] = False
            else:
                raise ValueError(
                    f"invalid pattern character {char!r} at {index}")
        return cls(bits=bits, care=care)

    @classmethod
    def from_value(cls, value: int, width: int,
                   mask: int | None = None) -> "TernaryPattern":
        """Build from an integer value and optional care mask.

        ``mask`` bit = 1 means the bit is compared; default all-ones.
        The most significant bit is stored first.
        """
        if width < 1:
            raise ValueError(f"width must be >= 1: {width!r}")
        care_mask = (1 << width) - 1 if mask is None else mask
        return cls(bits=key_from_int(value, width),
                   care=key_from_int(care_mask, width))

    def matches(self, key: np.ndarray) -> bool:
        """True iff the key agrees on every cared-for bit."""
        if key.shape != self.bits.shape:
            raise ValueError(f"key width {key.shape} != {self.bits.shape}")
        return bool(np.all(~self.care | (key == self.bits)))

    def __str__(self) -> str:
        return "".join(("1" if b else "0") if c else WILDCARD
                       for b, c in zip(self.bits, self.care))


def key_from_int(value: int, width: int) -> np.ndarray:
    """Encode an integer search key as a bit array (MSB first)."""
    if value < 0 or value >= (1 << width):
        raise ValueError(f"value {value} does not fit in {width} bits")
    return np.array([(value >> (width - 1 - i)) & 1 == 1
                     for i in range(width)])


def fit_width(values: np.ndarray, width: int) -> np.ndarray:
    """A column of unsigned ints as uint64, each checked to fit ``width``.

    Raises :class:`ValueError` naming the largest value when any needs
    more than ``width`` bits (negative inputs wrap to huge values and
    fail the same way).
    """
    column = np.asarray(values, dtype=np.uint64)
    if column.ndim != 1:
        raise ValueError(f"values must be 1-D, got shape {column.shape}")
    dtype = getattr(values, "dtype", column.dtype)
    if dtype.kind == "u" and dtype.itemsize * 8 <= width:
        return column  # an unsigned dtype no wider than the slot fits
    if width < 64 and column.size and int(column.max()) >= (1 << width):
        raise ValueError(
            f"value {int(column.max())} does not fit in {width} bits")
    return column


def key_matrix(values: np.ndarray, width: int) -> np.ndarray:
    """Encode a column of unsigned ints as a (batch, width) bit matrix.

    The vectorised counterpart of :func:`key_from_int` for fields up
    to 64 bits wide; MSB first, one row per key.  Wider keys are built
    by concatenating per-field matrices along axis 1.
    """
    if not 1 <= width <= 64:
        raise ValueError(f"width must be in [1, 64]: {width!r}")
    column = fit_width(values, width)
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    return ((column[:, None] >> shifts[None, :]) & np.uint64(1)
            ).astype(bool)


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack (rows, width) MSB-first bit rows into (rows, words) uint64.

    Word ``i`` holds bits ``[64 i, 64 i + 64)`` of a row, MSB first, so
    a width that is not a multiple of 64 leaves the last word
    right-aligned: a 104-bit key is a full 64-bit word plus a 40-bit
    one.  This is the layout :meth:`TCAM.search_words` matches.
    """
    rows, width = bits.shape
    words = np.empty((rows, -(-width // WORD_BITS)), dtype=np.uint64)
    for word, start in enumerate(range(0, width, WORD_BITS)):
        chunk = bits[:, start:start + WORD_BITS].astype(np.uint64)
        shifts = np.arange(chunk.shape[1] - 1, -1, -1, dtype=np.uint64)
        words[:, word] = np.bitwise_or.reduce(chunk << shifts, axis=1)
    return words


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one TCAM search."""

    matched_indices: tuple[int, ...]
    best_index: int | None
    energy_j: float
    latency_s: float

    @property
    def hit(self) -> bool:
        """True when at least one entry matched."""
        return self.best_index is not None


@dataclass(frozen=True)
class BatchSearchResult:
    """Outcome of one vectorised multi-key TCAM search.

    ``best_indices[i]`` is the winning entry for key ``i``, or ``-1``
    on a miss; ``energy_j`` is the total energy of the whole burst —
    the same joules the scalar :meth:`TCAM.search` would have charged
    key by key.
    """

    best_indices: np.ndarray
    energy_j: float
    latency_s: float

    @property
    def hit_mask(self) -> np.ndarray:
        """Boolean per-key hit flags."""
        return self.best_indices >= 0

    def __len__(self) -> int:
        return int(self.best_indices.shape[0])


class _PackedTable(NamedTuple):
    """A :class:`TCAM`'s entries packed for search (see
    :meth:`TCAM._ensure_words`): fixed until the next add/remove."""

    order: np.ndarray
    bits: np.ndarray
    care: np.ndarray
    #: Width of the last key word in bits (64 when the width divides).
    last_bits: int
    #: Keys per search slice (see :attr:`TCAM._MAX_BATCH_CELLS`).
    step: int
    #: The per-key ledger quanta (see :meth:`TCAM._search_quanta`).
    quanta: tuple


def _match_slices(charges, n_keys: int, step: int
                  ) -> list[tuple[int, list]]:
    """The match passes of one charged search: ``(start, pieces)``.

    Each ledger's keys are cut into runs of at most ``step`` keys, one
    charge each, exactly as a search of those keys alone would cut
    them; consecutive runs share one pass over rows ``[start,
    pieces[-1][2])`` while they fit in ``step`` keys.  A piece is
    ``(ledger, lo, hi)`` in batch rows.  Raises ``ValueError`` unless
    the charges' counts are non-negative and sum to ``n_keys``.
    """
    passes: list[tuple[int, list]] = []
    start = 0
    for ledger, count in charges:
        if count < 0:
            raise ValueError(f"negative key count in charges: {count!r}")
        for lo in range(start, start + count, step):
            piece = (ledger, lo, min(lo + step, start + count))
            if passes and piece[2] - passes[-1][0] <= step:
                passes[-1][1].append(piece)
            else:
                passes.append((lo, [piece]))
        start += count
    if start != n_keys:
        raise ValueError(f"charges cover {start} keys, the batch has "
                         f"{n_keys}")
    return passes


class TCAM:
    """A priority-ordered ternary CAM with a digital energy model.

    Entries are matched in insertion order unless an explicit priority
    is given; lower priority value wins (like P4 table entries).
    """

    def __init__(self, width_bits: int,
                 energy_per_bit_j: float = DEFAULT_ENERGY_PER_BIT_J,
                 search_latency_s: float = DEFAULT_SEARCH_LATENCY_S,
                 movement_fraction: float = DEFAULT_MOVEMENT_FRACTION,
                 ledger: EnergyLedger | None = None) -> None:
        if width_bits < 1:
            raise ValueError(f"width must be >= 1: {width_bits!r}")
        if not 0.0 <= movement_fraction <= 1.0:
            raise ValueError("movement fraction must be in [0, 1]")
        self.width_bits = width_bits
        self.energy_per_bit_j = energy_per_bit_j
        self.search_latency_s = search_latency_s
        self.movement_fraction = movement_fraction
        self.ledger = ledger if ledger is not None else EnergyLedger()
        self._patterns: list[TernaryPattern] = []
        self._priorities: list[int] = []
        self._searches = 0
        self._generation = 0
        # The packed entries and search setup, rebuilt lazily.
        self._words: _PackedTable | None = None

    def __len__(self) -> int:
        return len(self._patterns)

    @property
    def energy_per_bit_j(self) -> float:
        """Search energy per stored bit [J]; a new value takes effect
        from the next search."""
        return self._energy_per_bit_j

    @energy_per_bit_j.setter
    def energy_per_bit_j(self, value: float) -> None:
        self._energy_per_bit_j = value
        self._words = None

    @property
    def movement_fraction(self) -> float:
        """Share of the search energy booked as data movement; a new
        value takes effect from the next search."""
        return self._movement_fraction

    @movement_fraction.setter
    def movement_fraction(self, value: float) -> None:
        self._movement_fraction = value
        self._words = None

    @property
    def searches(self) -> int:
        """Number of searches performed."""
        return self._searches

    @property
    def generation(self) -> int:
        """Monotonic table version; bumps on every add/remove.

        Caches keyed on a table's contents (e.g. the data-plane flow
        cache) compare generations instead of diffing entries.
        """
        return self._generation

    def add(self, pattern: TernaryPattern | str,
            priority: int | None = None) -> int:
        """Install a rule; returns its entry index."""
        if isinstance(pattern, str):
            pattern = TernaryPattern.parse(pattern)
        if pattern.width != self.width_bits:
            raise ValueError(
                f"pattern width {pattern.width} != TCAM width "
                f"{self.width_bits}")
        self._patterns.append(pattern)
        self._priorities.append(
            priority if priority is not None else len(self._priorities))
        self._invalidate()
        return len(self._patterns) - 1

    def remove(self, index: int) -> None:
        """Delete a rule by entry index."""
        if not 0 <= index < len(self._patterns):
            raise IndexError(f"entry {index} out of range")
        del self._patterns[index]
        del self._priorities[index]
        self._invalidate()

    def _invalidate(self) -> None:
        """Drop the packed words and advance the table generation."""
        self._words = None
        self._generation += 1

    def _ensure_words(self) -> "_PackedTable":
        """The entries as packed match words, plus the search setup.

        Rows are in priority order (lower value first, insertion order
        breaking ties), followed by one all-don't-care sentinel row
        that every key matches; ``order[j]`` is row ``j``'s entry index
        (``-1`` for the sentinel), so a key's winner is simply its
        first matching row.  ``bits`` is stored pre-masked (``bits &
        care``).  Rebuilt only after :meth:`add` or :meth:`remove`.
        """
        if self._words is None:
            width = self.width_bits
            order = np.argsort(self._priorities, kind="stable")
            rows = [self._patterns[i] for i in order.tolist()]
            care = np.zeros((len(rows) + 1, width), dtype=bool)
            bits = care.copy()
            if rows:
                care[:-1] = [p.care for p in rows]
                bits[:-1] = [p.bits for p in rows]
            self._words = _PackedTable(
                order=np.append(order, -1), bits=pack_bits(bits & care),
                care=pack_bits(care), last_bits=(width - 1) % WORD_BITS + 1,
                step=max(1, self._MAX_BATCH_CELLS
                         // max(len(rows) * width, 1)),
                quanta=self._search_quanta())
        return self._words

    def _search_quanta(self) -> tuple:
        """(per-key joules, movement quantum, compute quantum): a
        transistor TCAM's search energy depends only on the entry count
        and the energy parameters, so it is prepared with the packed
        words, once per table version."""
        quantum = (self.energy_per_bit_j * self.width_bits
                   * max(len(self._patterns), 1))
        return (quantum, Quantum(quantum * self.movement_fraction),
                Quantum(quantum * (1.0 - self.movement_fraction)))

    def _match(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One match-line evaluation of packed ``keys`` against every row.

        A key matches a row when ``((key ^ bits) & care) == 0`` in every
        word.  Returns the (keys, rows + 1) mismatch words in priority
        order, zero exactly where a key matches a row (so the sentinel
        column is all zero), and the masked XOR itself, which
        :meth:`_charge` books the searches from.
        """
        table = self._ensure_words()
        diff = (keys[:, None, :] ^ table.bits) & table.care
        mismatch = diff[:, :, 0]
        for word in range(1, diff.shape[2]):
            mismatch = mismatch | diff[:, :, word]
        return mismatch, diff

    def search(self, key: np.ndarray | int) -> SearchResult:
        """One-cycle search of all entries against ``key``.

        Returns every matching entry plus the highest-priority one and
        charges the search energy to the ledger.
        """
        if isinstance(key, int):
            key = key_from_int(key, self.width_bits)
        if key.shape != (self.width_bits,):
            raise ValueError(
                f"key shape {key.shape} != ({self.width_bits},)")
        order = self._ensure_words().order
        mismatch, diff = self._match(pack_bits(key[None, :]))
        energy = self._charge(self.ledger, diff, 1)
        hits = order[mismatch[0] == 0][:-1].tolist()
        self._searches += 1
        return SearchResult(matched_indices=tuple(sorted(hits)),
                            best_index=hits[0] if hits else None,
                            energy_j=energy,
                            latency_s=self.search_latency_s)

    #: Upper bound on the cells (keys x entries x width) one vectorised
    #: slice may search; each slice is one charge per paying ledger.
    _MAX_BATCH_CELLS = 1 << 24

    def search_batch(self, keys: np.ndarray) -> BatchSearchResult:
        """Search a (batch, width) boolean key matrix.

        One :func:`key_from_int`-style row per key (build it with
        :func:`key_matrix`); the rows are packed and searched by
        :meth:`search_words`.
        """
        key_bits = np.asarray(keys, dtype=bool)
        if key_bits.ndim != 2 or key_bits.shape[1] != self.width_bits:
            raise ValueError(
                f"keys shape {key_bits.shape} != "
                f"(batch, {self.width_bits})")
        return self.search_words(pack_bits(key_bits))

    def search_words(self, keys: np.ndarray,
                     charges: Sequence[tuple[EnergyLedger, int]] | None
                     = None) -> BatchSearchResult:
        """Search many packed keys against all entries in one NumPy pass.

        ``keys`` is a (batch, words) uint64 array in the
        :func:`pack_bits` layout.  ``charges`` names who pays: ``(ledger,
        n)`` pairs in key order, each ledger paying for the next ``n``
        keys (the counts sum to the batch); by default the table's own
        :attr:`ledger` pays for every key.  Match semantics, priority
        resolution and each ledger's charges are exactly those of
        searching its keys alone in scalar :meth:`search` calls; only
        the interpreter round trips are removed.  A ledger is charged
        once per slice of at most :attr:`_MAX_BATCH_CELLS` cells of its
        own keys, and a ledger paying for no key is not charged; the
        keys of several ledgers share one match pass while they fit in
        one slice.
        """
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        table = self._ensure_words()
        n_words = table.bits.shape[1]
        if keys.ndim != 2 or keys.shape[1] != n_words:
            raise ValueError(
                f"keys shape {keys.shape} != (batch, {n_words})")
        n_keys, last_bits, step = len(keys), table.last_bits, table.step
        if last_bits < WORD_BITS and n_keys:
            top = int(keys[:, -1].max())
            if top >> last_bits:
                raise ValueError(
                    f"value {top} does not fit in {last_bits} bits")
        if charges is None:
            charges = ((self.ledger, n_keys),)
        best = [table.order[:0]]
        energy = 0.0
        for start, pieces in _match_slices(charges, n_keys, step):
            stop = pieces[-1][2]
            mismatch, diff = self._match(keys[start:stop])
            best.append(table.order[mismatch.argmin(axis=1)])
            for ledger, lo, hi in pieces:
                energy += self._charge(ledger, diff[lo - start:hi - start],
                                       hi - lo)
        self._searches += n_keys
        return BatchSearchResult(
            best_indices=best[1] if len(best) == 2
            else np.concatenate(best),
            energy_j=energy, latency_s=self.search_latency_s)

    def _charge(self, ledger: EnergyLedger, diff: np.ndarray,
                n_keys: int) -> float:
        """Book ``n_keys`` searches to ``ledger``; return their energy [J].

        A transistor TCAM's search energy is data-independent: every
        key drives every stored cell.  The searches are booked as
        ``n_keys`` identical quanta
        (:meth:`~repro.energy.ledger.EnergyLedger.charge_quanta`) with
        the per-key movement split, so the joules are an exact function
        of the key count — identical whether the keys arrive one by
        one, in one burst, or split across shard pipelines.
        """
        quantum, movement, compute = self._words.quanta
        ledger.charge_quanta(ACCOUNT_MOVEMENT, movement, n_keys)
        ledger.charge_quanta(ACCOUNT_COMPUTE, compute, n_keys)
        return quantum * n_keys
