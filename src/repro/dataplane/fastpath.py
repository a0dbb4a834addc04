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
  probe of a stale entry misses and the cache flushes itself.

Everything here is a pure re-expression of the scalar reference:
verdicts, drop reasons and telemetry totals are pinned equal by
``tests/test_fastpath_equivalence.py`` and
``tests/test_columns_native.py``.
"""

from __future__ import annotations

import ipaddress
from collections import Counter, OrderedDict, deque
from itertools import compress, repeat
from operator import is_not
from typing import Iterable, Sequence

import numpy as np

from repro.netfunc.firewall import Action
from repro.observability.tracing import maybe_span
from repro.dataplane.telemetry import stamp_packet
from repro.packet import Packet
from repro.tcam.tcam import key_matrix

__all__ = ["FlowCache", "PacketBatch", "first_appearance_counts",
           "ip_to_u32"]

#: Bound on the dotted-quad -> uint32 memo (flows repeat; header
#: variety does not grow without limit in practice, but a rotating
#: scan must not leak memory).
_IP_MEMO_LIMIT = 1 << 16
_ip_memo: dict[object, int] = {}


def ip_to_u32(value: object) -> int:
    """Decode an IPv4 field (dotted quad or int) to a uint32, memoised.

    Matches the scalar reference (``int(ipaddress.ip_address(v))``)
    exactly, including its rejection of malformed addresses; a plain
    ``int`` already in range is returned as is, and repeated dotted
    quads hit a bounded dictionary instead of re-parsing.
    """
    if type(value) is int and 0 <= value < 1 << 32:
        return value
    cached = _ip_memo.get(value)
    if cached is not None:
        return cached
    decoded = int(ipaddress.ip_address(value))
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


#: Columns a batch carries, in wire order (the fabric ships these).
BATCH_COLUMNS = ("sizes", "flow_ids", "priorities", "times", "src_ip",
                 "dst_ip", "src_port", "dst_port", "protocol", "has_dst")

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
    wherever the mask is clear.  ``flow_keys[i]`` is the hashable
    per-row cache key: the 5-tuple plus the dst-present flag, so a
    packet with an explicit ``0.0.0.0`` destination never shares a
    cache line with one missing the field.

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

    @classmethod
    def from_arrays(cls, arrays: dict) -> "PacketBatch":
        """A batch over already-normalised :data:`BATCH_COLUMNS` arrays
        (e.g. a fabric shard's slice rebuilt from shared memory)."""
        batch = cls.__new__(cls)
        for name in BATCH_COLUMNS:
            setattr(batch, name, arrays[name])
        batch.packets = None
        batch.int_port = None
        batch.int_depth = None
        batch.int_time = 0.0
        batch._flow_keys = None
        return batch

    def arrays(self) -> dict:
        """The :data:`BATCH_COLUMNS` arrays by name (for shipping)."""
        return {name: getattr(self, name) for name in BATCH_COLUMNS}

    def __len__(self) -> int:
        return len(self.sizes)

    def __getitem__(self, row: int) -> Packet:
        if self.packets is not None:
            return self.packets[row]
        return self.packet(row)

    def __iter__(self):
        return (self[row] for row in range(len(self)))

    @property
    def flow_keys(self) -> list[tuple]:
        """Per-row hashable flow keys, built once per batch."""
        keys = self._flow_keys
        if keys is None:
            keys = self._flow_keys = list(zip(
                self.src_ip.tolist(), self.dst_ip.tolist(),
                self.src_port.tolist(), self.dst_port.tolist(),
                self.protocol.tolist(), self.has_dst.tolist()))
        return keys

    def _derive(self, pick) -> "PacketBatch":
        sub = PacketBatch.__new__(PacketBatch)
        for name in BATCH_COLUMNS:
            setattr(sub, name, getattr(self, name)[pick])
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
        """A sub-batch over rows ``[start, stop)`` (column views)."""
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

    def firewall_key_bits(self) -> np.ndarray:
        """The (batch, 104) ACL key matrix: src dst sport dport proto.

        Field layout matches :attr:`repro.netfunc.firewall.Firewall`
        (MSB first), built column-wise in one NumPy pass per field.
        """
        return np.concatenate([
            key_matrix(self.src_ip, 32),
            key_matrix(self.dst_ip, 32),
            key_matrix(self.src_port, 16),
            key_matrix(self.dst_port, 16),
            key_matrix(self.protocol, 8),
        ], axis=1)


class FlowCache:
    """LRU cache of digital classification results, generation-keyed.

    Entries map a :class:`PacketBatch` flow key to the pair
    ``(acl_action, next_hop)`` the digital tables produced.  The cache
    carries the (firewall, lookup) generation pair it was filled
    under: probing with a different pair flushes everything, so a
    controller table update can never serve a stale verdict — there is
    no time-based staleness, only explicit invalidation.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity!r}")
        self.capacity = capacity
        self._entries: OrderedDict[tuple, tuple] = OrderedDict()
        #: Interned ``(action, next_hop)`` values: flows with the same
        #: outcome share one tuple (see :func:`classify_chunk`).
        self.outcomes: dict[tuple, tuple] = {}
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
                self.outcomes.clear()
            self._generation = generation

    def get(self, flow_key: tuple,
            generation: tuple[int, int]) -> tuple | None:
        """The cached (action, next_hop), or None on a miss.

        A generation mismatch counts as an invalidation and empties
        the cache before the probe is answered.
        """
        return self.probe([flow_key], generation)[0]

    def probe(self, flow_keys: Sequence[tuple],
              generation: tuple[int, int]) -> list:
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

    def put(self, flow_key: tuple, generation: tuple[int, int],
            value: tuple) -> None:
        """Install one classification result under the generation.

        A generation mismatch invalidates exactly as :meth:`get` does
        — counted once per flush — so write-first workloads report the
        same invalidation totals as probe-first ones.
        """
        self.put_many([(flow_key, value)], generation)

    def put_many(self, items: Iterable[tuple[tuple, tuple]],
                 generation: tuple[int, int]) -> None:
        """:meth:`put` for each ``(flow_key, value)`` pair in order."""
        self._sync(generation)
        entries = self._entries
        for key, value in items:
            entries[key] = value
            entries.move_to_end(key)
        # Evicting the oldest once at the end leaves the same entries
        # as evicting after every insert: the front is always oldest.
        for _ in range(len(entries) - self.capacity):
            entries.popitem(last=False)

    def clear(self) -> None:
        """Explicitly drop every cached flow."""
        if self._entries:
            self.invalidations += 1
        self._entries.clear()
        self.outcomes.clear()
        self._generation = None


def classify_chunk(batch: PacketBatch, firewall, lookup,
                   cache: FlowCache | None,
                   tracer=None) -> tuple[np.ndarray, list[tuple]]:
    """Vectorised ACL + LPM classification of one chunk.

    Returns ``(row_entry, entries)``: ``entries`` lists the chunk's
    distinct ``(action, next_hop)`` outcome objects in order of first
    appearance and ``row_entry[i]`` indexes row ``i``'s outcome (rows
    are grouped by object identity, which interning makes coincide
    with equal outcomes for cached flows).

    Every row probes the flow cache first (so all rows of a flow new
    to the chunk count as misses); the unique missing flows are then
    searched in one firewall pass, the ACL survivors that carry a
    destination get one LPM pass, and their outcomes are cached.  The
    lookup for denied or destination-less flows is skipped exactly as
    the scalar reference skips it.
    """
    n = len(batch)
    keys = batch.flow_keys
    generation = (firewall.generation, lookup.generation)
    found = cache.probe(keys, generation) if cache is not None \
        else [None] * n
    if None in found:
        _classify_misses(batch, [row for row, entry in enumerate(found)
                                 if entry is None],
                         found, firewall, lookup, cache, generation,
                         tracer)
    # Rows sharing an outcome share its (interned) tuple: group them
    # by identity, numbering groups in order of first appearance.
    ids = list(map(id, found))
    first = dict(zip(ids, found))
    group = {key: position for position, key in enumerate(first)}
    row_entry = np.fromiter(map(group.__getitem__, ids), dtype=np.intp,
                            count=n)
    return row_entry, list(first.values())


def _classify_misses(batch: PacketBatch, missing: list[int],
                     found: list, firewall, lookup,
                     cache: FlowCache | None, generation,
                     tracer) -> None:
    """Search the chunk's unique missing flows; fill ``found`` in."""
    keys = batch.flow_keys
    # Number the unique missing flows in first-appearance order.
    position_of: dict[tuple, int] = {}
    miss_rows: list[int] = []              # first row of each miss
    member_of = []                         # per missing row: its miss
    for row in missing:
        key = keys[row]
        position = position_of.get(key)
        if position is None:
            position = position_of[key] = len(miss_rows)
            miss_rows.append(row)
        member_of.append(position)
    misses = batch.take(miss_rows)
    with maybe_span(tracer, "dataplane.firewall", batch=len(misses)):
        acl = firewall.check_batch(misses.firewall_key_bits())
    deny = Action.DENY
    has_dst = misses.has_dst.tolist()
    routed = [pos for pos in range(len(misses))
              if acl[pos] is not deny and has_dst[pos]]
    hops: list = [None] * len(misses)
    if routed:
        with maybe_span(tracer, "dataplane.ip_lookup", batch=len(routed)):
            resolved = lookup.lookup_batch(
                misses.dst_ip[np.asarray(routed, dtype=np.intp)])
        for pos, hop in zip(routed, resolved):
            hops[pos] = hop
    # Intern the outcomes (the cache's table outlives the chunk), so
    # all flows with one outcome share one tuple.
    outcomes = cache.outcomes if cache is not None else {}
    fresh = [outcomes.setdefault(entry, entry)
             for entry in zip(acl, hops)]
    if cache is not None:
        cache.put_many(zip([keys[row] for row in miss_rows], fresh),
                       generation)
    for row, position in zip(missing, member_of):
        found[row] = fresh[position]
