"""Columnar fast path for the digital match-action stage.

The switch moves fixed-width header columns, not per-packet objects:

* :class:`PacketBatch` — the structure-of-arrays batch every stage,
  queue and drain works on.  It wraps the columns of a
  :class:`~repro.simnet.workloads.ChunkColumns` chunk without copying
  (the native path), or extracts them once from a sequence of
  :class:`~repro.packet.Packet` objects (the scalar edge), keeping
  those objects alongside so the edge gets its own packets back.
* :class:`FlowCache` — an LRU of digital classification results keyed
  on (flow key, table generation): repeated flows skip classification
  entirely, and any table mutation bumps the generation, so the next
  probe of a stale entry misses and the cache flushes itself.  A flow
  key is one 16-byte string of the two packed header words, so the
  dictionary hashes each row's key once.

Everything here is a pure re-expression of the scalar reference:
verdicts, drop reasons and telemetry totals are pinned equal by
``tests/test_fastpath_equivalence.py`` and
``tests/test_columns_native.py``.
"""

from __future__ import annotations

import ipaddress
from collections import Counter, OrderedDict, deque
from itertools import compress, repeat
from operator import is_, is_not, itemgetter
from typing import Collection, Iterable, Sequence

import numpy as np

from repro.netfunc.firewall import Action
from repro.observability.tracing import maybe_span
from repro.dataplane.telemetry import stamp_packet
from repro.packet import Packet
from repro.tcam.tcam import fit_width

__all__ = ["FlowCache", "PacketBatch", "first_appearance_counts",
           "ip_to_u32"]

#: Bound on the dotted-quad -> uint32 memo (flows repeat; header
#: variety does not grow without limit in practice, but a rotating
#: scan must not leak memory).
_IP_MEMO_LIMIT = 1 << 16
_ip_memo: dict[object, int] = {}


def ip_to_u32(value: object) -> int:
    """Decode an IPv4 field (dotted quad or int) to a uint32, memoised.

    Matches the scalar reference (``int(ipaddress.IPv4Address(v))``)
    exactly, including its ``ValueError`` for malformed or IPv6
    addresses; a plain ``int`` already in range is returned as is, and
    repeated dotted quads hit a bounded dictionary instead of
    re-parsing.
    """
    if type(value) is int and 0 <= value < 1 << 32:
        return value
    cached = _ip_memo.get(value)
    if cached is not None:
        return cached
    decoded = int(ipaddress.IPv4Address(value))
    if len(_ip_memo) >= _IP_MEMO_LIMIT:
        _ip_memo.clear()
    _ip_memo[value] = decoded
    return decoded


def first_appearance_counts(values: np.ndarray) -> list[tuple]:
    """``(value, count)`` pairs ordered by each value's first row.

    The bulk form of counting row by row into a ``Counter``: the pairs
    come out in the order the per-row loop would have inserted keys.
    """
    return list(Counter(values.tolist()).items())


def _check_rows(sizes: np.ndarray, priorities: np.ndarray) -> None:
    """Raise :class:`Packet`'s own ``ValueError`` for the first bad row."""
    bad = (sizes <= 0) | (priorities < 0)
    if bad.any():
        row = int(np.argmax(bad))
        if sizes[row] <= 0:
            raise ValueError(
                f"size must be positive: {sizes[row].item()!r}")
        raise ValueError(
            f"priority must be >= 0: {priorities[row].item()!r}")


#: Columns a batch carries.
BATCH_COLUMNS = ("sizes", "flow_ids", "priorities", "times", "src_ip",
                 "dst_ip", "src_port", "dst_port", "protocol", "has_dst")

#: The 5-tuple columns in flow-key order, with their header widths.
_KEY_FIELDS = (("src_ip", 32), ("dst_ip", 32), ("src_port", 16),
               ("dst_port", 16), ("protocol", 8))
#: Shift amounts as uint64 scalars (a Python int shift promotes
#: uint64 columns to float64 under NumPy 1.x value-based casting).
_U64 = {bits: np.uint64(bits) for bits in (1, 8, 16, 32)}
_LOW32 = np.uint64(0xFFFFFFFF)
_OR = np.bitwise_or.reduce

#: Packet attribute / header field -> the batch column holding it.
_FEATURE_COLUMNS = {"size_bytes": "sizes", "priority": "priorities",
                    "flow_id": "flow_ids", "created_at": "times",
                    "src_ip": "src_ip", "dst_ip": "dst_ip",
                    "src_port": "src_port", "dst_port": "dst_port",
                    "protocol": "protocol"}


class PacketBatch:
    """Structure-of-arrays batch: the unit every stage and queue moves.

    Columns mirror what the tables, queues and drain consume: wire
    size, flow id, priority and arrival time, the 5-tuple as integer
    arrays, and a ``has_dst`` mask.  ``has_dst`` follows the scalar
    reference, which treats a zero destination as absent (the parser
    and ``Packet`` path test ``bool(dst_ip)``), and ``dst_ip`` reads 0
    wherever the mask is clear.  ``flow_keys[i]`` is the per-row cache
    key: the 5-tuple plus the dst-present flag packed into two 64-bit
    words (:meth:`flow_words`) and held as one 16-byte ``bytes``
    value, so a packet with an explicit ``0.0.0.0`` destination never
    shares a cache line with one missing the field.

    Built from a :class:`~repro.simnet.workloads.ChunkColumns` chunk
    the batch wraps its arrays; built from ``Packet`` objects it
    extracts them once and keeps the objects in :attr:`packets`, so a
    queue can hand the very same object back.  The INT columns
    (``int_port``/``int_depth``/``int_time``) are written once per
    chunk by the digital MATs; a ``Packet`` materialised from a row
    (:meth:`packet`) carries the same telemetry trail an object
    stamped in place would.

    The batch is also a read-only sequence of packets: ``batch[i]`` is
    the row's object, or a freshly materialised one.
    """

    __slots__ = BATCH_COLUMNS + ("packets", "int_port", "int_depth",
                                 "int_time", "_flow_keys")

    def __init__(self, source) -> None:
        self.packets = None
        self.int_port = None
        self.int_depth = None
        self.int_time = 0.0
        self._flow_keys = None
        if hasattr(source, "times_s"):
            self._wrap_columns(source)
        else:
            self._extract(source)

    def _wrap_columns(self, columns) -> None:
        _check_rows(columns.sizes_bytes, columns.priorities)
        self.sizes = columns.sizes_bytes
        self.flow_ids = columns.flow_ids
        self.priorities = columns.priorities
        self.times = columns.times_s
        self.src_ip = columns.src_ip
        self.src_port = columns.src_port
        self.dst_port = columns.dst_port
        self.protocol = columns.protocol
        present = columns.has_dst & (columns.dst_ip != 0)
        self.has_dst = present
        self.dst_ip = columns.dst_ip if present.all() \
            else np.where(present, columns.dst_ip, np.uint32(0))

    def _extract(self, packets: Sequence[Packet]) -> None:
        packets = list(packets)
        src, dst, sport, dport, proto, present = [], [], [], [], [], []
        for packet in packets:
            fields = packet.fields
            raw_dst = fields.get("dst_ip")
            has = bool(raw_dst)
            src.append(ip_to_u32(fields.get("src_ip", "0.0.0.0")))
            dst.append(ip_to_u32(raw_dst) if has else 0)
            sport.append(int(fields.get("src_port", 0)))
            dport.append(int(fields.get("dst_port", 0)))
            proto.append(int(fields.get("protocol", 0)))
            present.append(has)
        self.packets = packets
        self.sizes = np.array([p.size_bytes for p in packets])
        self.flow_ids = np.array([p.flow_id for p in packets])
        self.priorities = np.array([p.priority for p in packets],
                                   dtype=np.int64)
        self.times = np.array([p.created_at for p in packets],
                              dtype=float)
        self.src_ip = np.array(src, dtype=np.uint64)
        self.dst_ip = np.array(dst, dtype=np.uint64)
        self.src_port = np.array(sport, dtype=np.uint64)
        self.dst_port = np.array(dport, dtype=np.uint64)
        self.protocol = np.array(proto, dtype=np.uint64)
        self.has_dst = np.array(present, dtype=bool)

    @classmethod
    def of(cls, source) -> "PacketBatch":
        """``source`` itself when already a batch, else a new batch."""
        return source if isinstance(source, cls) else cls(source)

    def __len__(self) -> int:
        return len(self.sizes)

    def __getitem__(self, row: int) -> Packet:
        if self.packets is not None:
            return self.packets[row]
        return self.packet(row)

    def __iter__(self):
        return (self[row] for row in range(len(self)))

    @property
    def flow_keys(self) -> list[bytes]:
        """Per-row flow keys, built once per batch.

        Row ``i``'s key is the 16 bytes of its two :meth:`flow_words`
        (host byte order): one opaque value whose hash Python computes
        once and caches, so every probe, LRU touch and put after the
        first reuses it.  The keys never leave the process.
        """
        keys = self._flow_keys
        if keys is None:
            keys = self._flow_keys = \
                self.flow_words().view("V16").ravel().tolist()
        return keys

    def flow_words(self) -> np.ndarray:
        """The flow key as an ``(n, 2)`` uint64 array of ``(hi, lo)``.

        ``hi = src << 32 | dst`` and ``lo = sport << 25 | dport << 9 |
        proto << 1 | has_dst``, so ``(hi, lo >> 1)`` is the firewall's
        104-bit ACL key in :func:`~repro.tcam.tcam.pack_bits` layout
        and ``hi & 0xFFFFFFFF`` is the LPM key.  Raises
        :func:`~repro.tcam.tcam.fit_width`'s ``ValueError`` for a field
        wider than its header slot.
        """
        src, dst, sport, dport, proto = columns = [
            getattr(self, name).astype(np.uint64, copy=False)
            for name, _ in _KEY_FIELDS]
        if int(_OR(src | dst)) >> 32 | int(_OR(sport | dport)) >> 16 \
                | int(_OR(proto)) >> 8:
            for column, (_, width) in zip(columns, _KEY_FIELDS):
                fit_width(column, width)    # raises the width error
        words = np.empty((len(src), 2), dtype=np.uint64)
        hi, lo = words.T
        np.left_shift(src, _U64[32], out=hi)
        hi |= dst
        np.left_shift(sport, _U64[16], out=lo)
        lo |= dport
        lo <<= _U64[8]
        lo |= proto
        lo <<= _U64[1]
        lo |= self.has_dst
        return words

    def _derive(self, pick) -> "PacketBatch":
        sub = PacketBatch.__new__(PacketBatch)
        sub.sizes = self.sizes[pick]
        sub.flow_ids = self.flow_ids[pick]
        sub.priorities = self.priorities[pick]
        sub.times = self.times[pick]
        sub.src_ip = self.src_ip[pick]
        sub.dst_ip = self.dst_ip[pick]
        sub.src_port = self.src_port[pick]
        sub.dst_port = self.dst_port[pick]
        sub.protocol = self.protocol[pick]
        sub.has_dst = self.has_dst[pick]
        sub.int_port = None if self.int_port is None \
            else self.int_port[pick]
        sub.int_depth = None if self.int_depth is None \
            else self.int_depth[pick]
        sub.int_time = self.int_time
        sub._flow_keys = None
        return sub

    def take(self, rows) -> "PacketBatch":
        """A sub-batch over the given row indices (columns gathered)."""
        index = np.asarray(rows, dtype=np.intp)
        sub = self._derive(index)
        sub.packets = None if self.packets is None \
            else [self.packets[i] for i in index.tolist()]
        return sub

    def slice(self, start: int, stop: int) -> "PacketBatch":
        """A sub-batch over rows ``[start, stop)`` (column views); the
        batch itself when that covers every row."""
        if start <= 0 and stop >= len(self):
            return self
        sub = self._derive(slice(start, stop))
        sub.packets = None if self.packets is None \
            else self.packets[start:stop]
        return sub

    def stamp(self, ports: np.ndarray, depths: np.ndarray,
              now: float) -> None:
        """Write the INT columns: one egress record per row.

        Rows that entered as packets are stamped in place as well, so
        the edge sees the trail on its own objects.
        """
        self.int_port = ports
        self.int_depth = depths
        self.int_time = now
        if self.packets is not None:
            for packet, port, depth in zip(self.packets, ports.tolist(),
                                           depths.tolist()):
                stamp_packet(packet, f"egress{port}", depth, now)

    def packet(self, row: int) -> Packet:
        """Materialise one row as a :class:`Packet` (plus its trail)."""
        fields = {"src_ip": int(self.src_ip[row]),
                  "src_port": int(self.src_port[row]),
                  "dst_port": int(self.dst_port[row]),
                  "protocol": int(self.protocol[row])}
        if self.has_dst[row]:
            fields["dst_ip"] = int(self.dst_ip[row])
        if self.int_port is not None:
            fields["int_trail"] = [{
                "component": f"egress{int(self.int_port[row])}",
                "queue_depth": int(self.int_depth[row]),
                "timestamp_s": self.int_time}]
        return Packet(size_bytes=self.sizes[row].item(),
                      flow_id=self.flow_ids[row].item(),
                      priority=int(self.priorities[row]), fields=fields,
                      created_at=float(self.times[row]))

    def mark_dropped(self, rows) -> None:
        """Flag the given rows' packet objects as dropped (edge only)."""
        if self.packets is not None:
            packets = self.packets
            for row in np.asarray(rows, dtype=np.intp).tolist():
                packets[row].dropped = True

    def feature_column(self, name: str) -> np.ndarray:
        """One float feature per row, as the scalar extractor reads it.

        Packet attributes and 5-tuple fields come from their columns;
        any other header field only exists on packet objects (absent
        or falsy fields read 0.0, as on the scalar path).
        """
        column = _FEATURE_COLUMNS.get(name)
        if column is not None:
            return getattr(self, column).astype(float)
        if self.packets is None:
            return np.zeros(len(self))
        values = []
        for packet in self.packets:
            attr = getattr(packet, name, None)
            if attr is not None and not callable(attr):
                values.append(float(attr))
            else:
                values.append(float(packet.field(name) or 0.0))
        return np.array(values, dtype=float)

class FlowCache:
    """LRU cache of digital classification results, generation-keyed.

    Entries map a :class:`PacketBatch` flow key (16 bytes; any
    hashable key works) to the outcome code :func:`classify_chunk`
    computed for it.  The cache carries the
    (firewall, lookup) generation pair it was filled under: probing
    with a different pair flushes everything, so a controller table
    update can never serve a stale verdict — there is no time-based
    staleness, only explicit invalidation.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity!r}")
        self.capacity = capacity
        self._entries: OrderedDict = OrderedDict()
        self._generation: tuple[int, int] | None = None
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def _sync(self, generation: tuple[int, int]) -> None:
        """Flush (counting one invalidation) on a generation change."""
        if generation != self._generation:
            if self._entries:
                self.invalidations += 1
                self._entries.clear()
            self._generation = generation

    def get(self, flow_key, generation: tuple[int, int]):
        """The cached value, or None on a miss.

        A generation mismatch counts as an invalidation and empties
        the cache before the probe is answered.
        """
        return self.probe([flow_key], generation)[0]

    def probe(self, flow_keys: Sequence, generation: tuple[int, int]
              ) -> list:
        """:meth:`get` for each key in order: entries or None.

        The lookups and the LRU touches of the hits (in key order,
        so the recency order is exactly the per-key loop's) run as
        C-level ``map`` passes.
        """
        self._sync(generation)
        entries = self._entries
        found = list(map(entries.get, flow_keys))
        hit = list(map(is_not, found, repeat(None)))
        deque(map(entries.move_to_end, compress(flow_keys, hit)),
              maxlen=0)
        hits = hit.count(True)
        self.hits += hits
        self.misses += len(found) - hits
        return found

    def put(self, flow_key, generation: tuple[int, int], value) -> None:
        """Install one classification result under the generation.

        A generation mismatch invalidates exactly as :meth:`get` does
        — counted once per flush — so write-first workloads report the
        same invalidation totals as probe-first ones.  A cached key
        moves to the most recent end.
        """
        self._sync(generation)
        self._entries.pop(flow_key, None)
        self.put_many([flow_key], [value], generation)

    def put_many(self, flow_keys: Collection, values: Iterable,
                 generation: tuple[int, int]) -> None:
        """:meth:`put` for each of ``flow_keys`` in order: distinct
        flows that a probe under ``generation`` just missed.

        Appending them all and evicting from the front once leaves the
        entries and order one-by-one puts would.
        """
        self._sync(generation)
        entries = self._entries
        entries.update(zip(flow_keys, values))
        excess = len(entries) - self.capacity
        if excess > 0:
            deque(map(entries.popitem, repeat(False, excess)), maxlen=0)

    def clear(self) -> None:
        """Explicitly drop every cached flow."""
        if self._entries:
            self.invalidations += 1
        self._entries.clear()
        self._generation = None


#: Firewall verdicts in outcome-code order (see :func:`classify_chunk`).
_ACTIONS = tuple(Action)
_DENY = _ACTIONS.index(Action.DENY)


def classify_chunk(parts: Sequence[tuple[list, FlowCache | None, object]],
                   firewall, lookup, tracer=None
                   ) -> list[tuple[np.ndarray, list[tuple]]]:
    """Vectorised ACL + LPM classification of one chunk's parts.

    A part is ``(keys, cache, ledger)``: the :attr:`PacketBatch.flow_keys`
    of some of the chunk's rows, the flow cache they probe (or None)
    and the energy ledger that pays for their searches.  A switch
    passes its chunk as one part; a fabric passes one part per shard,
    all classified against the one table set the shards share.

    An outcome is the integer code ``action * (routes + 1) + route +
    1`` (the action's index in :class:`Action`, the winning LPM entry
    or ``-1``), which is what the flow cache stores.  Each part gets
    ``(row_entry, entries)``: ``entries`` holds the ``(action,
    next_hop)`` of each distinct code in order of first appearance and
    ``row_entry[i]`` indexes row ``i``'s, so no ``Action`` is hashed
    per row.

    Every part's rows probe its flow cache with their 16-byte keys (so
    all rows of a flow new to the part count as misses).  The unique
    missing flows of every part are then unpacked back to words in one
    ``np.frombuffer`` and searched in one firewall pass; the ACL
    survivors that carry a destination get one LPM pass, and each
    part caches its own codes.  Each ledger pays for its own part's
    keys, exactly as a search of that part alone would charge it; a
    part with no keys in a pass pays nothing for it.  The lookup for
    denied or destination-less flows is skipped exactly as the scalar
    reference skips it.
    """
    generation = (firewall.generation, lookup.generation)
    stride = len(lookup.tcam) + 1
    found, missing = [], []
    for keys, cache, _ in parts:
        rows = cache.probe(keys, generation) if cache is not None \
            else [None] * len(keys)
        found.append(rows)
        # Probes precede puts, so a flow misses on all of its rows or
        # on none: one dict pass numbers the part's missing flows in
        # first-row order.
        missing.append(dict.fromkeys(compress(keys, map(is_, rows,
                                                        repeat(None))))
                       if None in rows else {})
    if any(missing):
        codes = _search_misses(parts, missing, firewall, lookup, stride,
                               tracer)
        start = 0
        for index, ((keys, cache, _), flows) in enumerate(
                zip(parts, missing)):
            if flows:
                stop = start + len(flows)
                if cache is not None:
                    cache.put_many(flows, codes[start:stop], generation)
                code_of = dict(zip(flows, codes[start:stop]))
                found[index] = list(map(code_of.get, keys, found[index]))
                start = stop
    routes = lookup.routes
    outcomes = []
    for rows in found:
        codes = list(dict.fromkeys(rows))
        position = np.zeros(max(codes, default=0) + 1, dtype=np.intp)
        position[codes] = np.arange(len(codes))
        entries = [(_ACTIONS[code // stride],
                    routes[code % stride - 1].next_hop if code % stride
                    else None) for code in codes]
        outcomes.append((position[np.array(rows, dtype=np.intp)],
                         entries))
    return outcomes


def _search_misses(parts, missing: list[dict], firewall, lookup,
                   stride: int, tracer) -> list[int]:
    """Search every part's unique missing flows; their codes, in order."""
    counts = list(map(len, missing))
    ledgers = list(map(itemgetter(2), parts))
    words = np.frombuffer(b"".join(map(b"".join, missing)),
                          np.uint64).reshape(-1, 2)
    hi, lo = words[:, 0], words[:, 1]
    with maybe_span(tracer, "dataplane.firewall", batch=len(words)):
        acl = firewall.check_batch(
            np.column_stack((hi, lo >> _U64[1])),
            list(compress(zip(ledgers, counts), counts)))
    action = firewall.action_codes(acl)
    route = np.full(len(words), -1, dtype=np.intp)
    rows = np.flatnonzero((action != _DENY) & ((lo & _U64[1]) != 0))
    if len(rows):
        routed = [len(rows)] if len(counts) == 1 else np.bincount(
            np.repeat(np.arange(len(counts)), counts)[rows],
            minlength=len(counts)).tolist()
        with maybe_span(tracer, "dataplane.ip_lookup", batch=len(rows)):
            route[rows] = lookup.lookup_batch(
                hi[rows] & _LOW32,
                list(compress(zip(ledgers, routed), routed)))
    return (action * stride + route + 1).tolist()
