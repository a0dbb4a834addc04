"""Stateless columnar randomness for the traffic scenario engine.

The scenario harness streams tens of millions of packets in bounded
memory and must be *chunk-size invariant*: the same seed has to yield
byte-identical column streams whether the caller pulls 1k-packet or
1M-packet chunks.  Stateful generators (``np.random.Generator``)
cannot offer that — their stream position depends on how many variates
each chunk consumed — so every random quantity here is a pure function
of ``(seed, stream, packet index)``, evaluated with a vectorised
SplitMix64 hash:

* :func:`hash_u64` — the raw counter-based hash, one uint64 per index;
* :func:`uniforms` / :func:`integers` / :func:`pareto` — distribution
  helpers derived from it by inverse transform;
* :class:`ChunkColumns` — the structure-of-arrays packet chunk every
  scenario emits (times, sizes, flow ids, priorities and the decoded
  5-tuple), which the dataplane consumes natively (and which can
  still be materialised into :class:`repro.packet.Packet` lists).

Index-hashed randomness also makes streams trivially resumable (start
at any index) and seeds trivially independent — properties the
hypothesis suite in ``tests/test_scenario_properties.py`` pins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.packet import Packet

__all__ = [
    "ChunkColumns",
    "hash_u64",
    "integers",
    "pareto",
    "stream_key",
    "uniforms",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

#: Stream identifiers: one per independent random purpose, so the
#: same packet index draws uncorrelated values for, say, its size and
#: its flow assignment.  Scenario modules may define further streams;
#: collisions across *scenarios* are harmless (the columns differ),
#: collisions within one scenario are bugs.
STREAM_TIME = 1
STREAM_FLOW = 2
STREAM_SIZE = 3
STREAM_PRIORITY = 4
STREAM_SRC = 5
STREAM_DST = 6
STREAM_SPORT = 7
STREAM_DPORT = 8
STREAM_PROTO = 9
STREAM_KIND = 10
STREAM_MIX = 11
STREAM_WEIGHT = 12


def _splitmix64_int(value: int) -> int:
    """Scalar SplitMix64 finaliser over Python ints (never wraps noisily)."""
    value = (value + _GOLDEN) & _MASK64
    z = value
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def stream_key(seed: int, stream: int) -> int:
    """The 64-bit key of one ``(seed, stream)`` pair."""
    return _splitmix64_int(
        _splitmix64_int(seed & _MASK64) ^ ((stream * _GOLDEN) & _MASK64))


def hash_u64(seed: int, stream: int,
             indices: np.ndarray) -> np.ndarray:
    """One uint64 hash per packet index, vectorised.

    Equivalent to evaluating the SplitMix64 sequence keyed by
    ``stream_key(seed, stream)`` at arbitrary positions — a
    counter-based generator, so chunk boundaries cannot shift the
    stream.
    """
    idx = np.asarray(indices, dtype=np.uint64)
    x = idx + np.uint64(stream_key(seed, stream))
    x = x + np.uint64(_GOLDEN)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(_MIX1)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(_MIX2)
    return x ^ (x >> np.uint64(31))


def uniforms(seed: int, stream: int,
             indices: np.ndarray) -> np.ndarray:
    """Per-index uniforms in ``[0, 1)`` (53-bit mantissa)."""
    return (hash_u64(seed, stream, indices) >> np.uint64(11)).astype(
        np.float64) * (2.0 ** -53)


def integers(seed: int, stream: int, indices: np.ndarray,
             lo: int, hi: int) -> np.ndarray:
    """Per-index integers in ``[lo, hi)``."""
    if hi <= lo:
        raise ValueError(f"empty range: [{lo}, {hi})")
    span = np.uint64(hi - lo)
    return (hash_u64(seed, stream, indices) % span).astype(
        np.int64) + lo


def pareto(u: np.ndarray, alpha: float, x_m: float = 1.0) -> np.ndarray:
    """Inverse-transform Pareto samples (``>= x_m``) from uniforms."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive: {alpha!r}")
    return x_m * (1.0 - np.asarray(u, dtype=float)) ** (-1.0 / alpha)


_COLUMNS = ("times_s", "sizes_bytes", "flow_ids", "priorities",
            "src_ip", "dst_ip", "src_port", "dst_port", "protocol",
            "has_dst")
_DTYPES = {
    "times_s": np.float64,
    "sizes_bytes": np.int64,
    "flow_ids": np.int64,
    "priorities": np.int64,
    "src_ip": np.uint32,
    "dst_ip": np.uint32,
    "src_port": np.int64,
    "dst_port": np.int64,
    "protocol": np.int64,
    "has_dst": np.bool_,
}


@dataclass(frozen=True, eq=False)
class ChunkColumns:
    """One structure-of-arrays chunk of a scenario's packet stream.

    Columns are normalised to fixed dtypes at construction so the
    byte representation (:meth:`tobytes`) is stable — the currency of
    the chunk-size-invariance and golden tests.  ``src_ip``/``dst_ip``
    are decoded uint32 addresses (the dataplane's
    :func:`~repro.dataplane.fastpath.ip_to_u32` accepts integers
    directly, skipping dotted-quad parsing on the hot path);
    ``has_dst`` marks packets that carry a destination header at all.
    """

    times_s: np.ndarray
    sizes_bytes: np.ndarray
    flow_ids: np.ndarray
    priorities: np.ndarray
    src_ip: np.ndarray
    dst_ip: np.ndarray
    src_port: np.ndarray
    dst_port: np.ndarray
    protocol: np.ndarray
    has_dst: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.times_s)
        for name in _COLUMNS:
            column = np.ascontiguousarray(
                np.asarray(getattr(self, name)), dtype=_DTYPES[name])
            if len(column) != n:
                raise ValueError(f"{name} length != times length")
            object.__setattr__(self, name, column)
        if n and np.any(np.diff(self.times_s) < 0):
            raise ValueError("chunk times must be non-decreasing")

    def __len__(self) -> int:
        return len(self.times_s)

    def slice(self, start: int, stop: int) -> "ChunkColumns":
        """Rows ``[start, stop)`` as a chunk of column views (no copy;
        the parent already normalised and validated every column)."""
        part = object.__new__(ChunkColumns)
        for name in _COLUMNS:
            object.__setattr__(part, name,
                               getattr(self, name)[start:stop])
        return part

    @property
    def nbytes(self) -> int:
        """Resident bytes of the chunk's columns."""
        return sum(getattr(self, name).nbytes for name in _COLUMNS)

    @property
    def duration_s(self) -> float:
        """Span from first to last arrival in the chunk [s]."""
        if len(self) == 0:
            return 0.0
        return float(self.times_s[-1] - self.times_s[0])

    def tobytes(self) -> bytes:
        """Canonical byte image of every column, in schema order."""
        return b"".join(getattr(self, name).tobytes()
                        for name in _COLUMNS)

    @classmethod
    def concat(cls, chunks: Iterable["ChunkColumns"]) -> "ChunkColumns":
        """Concatenate a chunk sequence into one chunk (test helper —
        materialises everything, so never use it on full streams)."""
        chunks = list(chunks)
        if not chunks:
            return cls(**{name: np.zeros(0, dtype=_DTYPES[name])
                          for name in _COLUMNS})
        return cls(**{name: np.concatenate(
            [getattr(chunk, name) for chunk in chunks])
            for name in _COLUMNS})

    def to_packets(self) -> list[Packet]:
        """Materialise the chunk as dataplane packets.

        Header fields carry the decoded integer addresses; a packet
        whose ``has_dst`` flag is clear omits ``dst_ip`` entirely,
        matching how the parser exposes destination-less frames.
        """
        times = self.times_s.tolist()
        sizes = self.sizes_bytes.tolist()
        flows = self.flow_ids.tolist()
        prios = self.priorities.tolist()
        srcs = self.src_ip.tolist()
        dsts = self.dst_ip.tolist()
        sports = self.src_port.tolist()
        dports = self.dst_port.tolist()
        protos = self.protocol.tolist()
        present = self.has_dst.tolist()
        packets: list[Packet] = []
        for i in range(len(times)):
            fields = {"src_ip": srcs[i], "src_port": sports[i],
                      "dst_port": dports[i], "protocol": protos[i]}
            if present[i]:
                fields["dst_ip"] = dsts[i]
            packets.append(Packet(size_bytes=sizes[i], flow_id=flows[i],
                                  priority=prios[i], fields=fields,
                                  created_at=times[i]))
        return packets
