"""Internet-scale traffic scenarios: named, seeded, streamed workloads.

The paper's claim is cognitive *behaviour* under real traffic, not a
single throughput point: the pCAM AQM holding its 20 ms delay target
through bursts, the flow cache surviving (or honestly collapsing
under) adversarial 5-tuple churn, the degradation supervisor staying
quiet on healthy hardware.  This module turns those workloads into a
regression surface:

* a :class:`Scenario` registry of named, seeded workloads — heavy
  tails (elephants/mice), diurnal load, flash crowds, DDoS floods
  (SYN and amplification shapes), scan sweeps and flow-cache-
  adversarial churn — each streamed as
  :class:`~repro.simnet.workloads.ChunkColumns` chunks so memory
  stays flat at tens of millions of packets;
* :func:`run_scenario` — drives a whole stream through a
  :func:`~repro.dataplane.switch.build_switch` pipeline (flow cache,
  AQM, degradation supervision, optional observability hub), drains
  egress at line rate between admission slices, and folds windowed
  behavioural metrics into a :class:`ScenarioReport`;
* :func:`publish_reports` — serialises a report matrix into the
  ``BENCH_scenarios.json`` artifact CI archives.

Seed discipline: every random quantity is a pure function of
``(seed, stream, packet index)`` (see :mod:`repro.simnet.workloads`),
so the same seed yields byte-identical streams regardless of chunk
size, distinct seeds yield distinct streams, and any index range can
be generated without replaying its prefix.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.simnet.workloads import (
    STREAM_DPORT,
    STREAM_DST,
    STREAM_FLOW,
    STREAM_KIND,
    STREAM_MIX,
    STREAM_PRIORITY,
    STREAM_PROTO,
    STREAM_SIZE,
    STREAM_SPORT,
    STREAM_SRC,
    STREAM_TIME,
    STREAM_WEIGHT,
    ChunkColumns,
    hash_u64,
    integers,
    pareto,
    uniforms,
)

__all__ = [
    "BASE_RATE_PPS",
    "Scenario",
    "ScenarioReport",
    "ScenarioWindow",
    "default_switch_spec",
    "iter_scenarios",
    "publish_reports",
    "register_scenario",
    "run_scenario",
    "scenario",
    "scenario_names",
    "scenario_switch",
    "traffic_classes_expected",
    "traffic_classes_spec",
    "traffic_classes_tree",
]

#: Aggregate benign arrival rate every scenario is scaled around
#: [packets/s].  Against the default spec (3 ports x 200 Mb/s) this
#: sits at ~40% line utilisation, leaving floods room to overload.
BASE_RATE_PPS = 30_000.0
_BASE_GAP_S = 1.0 / BASE_RATE_PPS


def _ip(a: int, b: int, c: int, d: int) -> int:
    return (a << 24) | (b << 16) | (c << 8) | d


#: Address plan shared by every scenario (matches the default spec's
#: routing table, so one switch serves the whole matrix).
CLIENT_BASE = _ip(100, 64, 0, 0)        # CGNAT client space
VICTIM_IP = _ip(10, 9, 9, 9)            # routed to port 0
HOT_IP = _ip(192, 168, 7, 7)            # flash-crowd target, port 1
SCANNER_IP = _ip(100, 66, 6, 6)
DENIED_BASE = _ip(203, 0, 113, 0)       # ACL DENY prefix
UNROUTED_BASE = _ip(8, 0, 0, 0)         # no route -> dropped

#: flow-id namespaces so synthetic flow families never collide.
_CROWD_FLOWS = 10_000_000
_SYN_FLOWS = 20_000_000
_AMP_FLOWS = 30_000_000
_SCAN_FLOWS = 40_000_000
_CHURN_FLOWS = 50_000_000
_CLASS_FLOWS = 3_000


# ----------------------------------------------------------------------
# Arrival-time curves
# ----------------------------------------------------------------------
def _times(seed: int, idx: np.ndarray, gap_s: float,
           warp: Callable[[np.ndarray], np.ndarray] | None = None
           ) -> np.ndarray:
    """Non-decreasing arrival times, jittered inside each local gap.

    ``warp`` maps packet index to a warped position whose local slope
    sets the instantaneous rate (slope ``1/m`` = ``m`` times the base
    rate).  Jitter is scaled by the local gap so monotonicity holds
    for any monotone warp, and every timestamp depends only on its own
    index — the chunk-size-invariance guarantee extends to time.
    """
    x = idx.astype(np.float64)
    if warp is None:
        position = x
        local_gap = 1.0
    else:
        position = warp(x)
        local_gap = warp(x + 1.0) - position
    jitter = uniforms(seed, STREAM_TIME, idx)
    return (position + 0.999 * jitter * local_gap) * gap_s


def _surge_warp(n_total: int, x0: float, x1: float,
                multiplier: float) -> Callable[[np.ndarray], np.ndarray]:
    """Piecewise-linear warp: rate x ``multiplier`` inside [x0, x1)."""
    i0, i1 = x0 * n_total, x1 * n_total

    def warp(x: np.ndarray) -> np.ndarray:
        inside = np.clip(x, i0, i1) - i0
        return (np.minimum(x, i0) + inside / multiplier
                + np.maximum(x - i1, 0.0))

    return warp


def _diurnal_warp(n_total: int, cycles: float,
                  amplitude: float) -> Callable[[np.ndarray], np.ndarray]:
    """Smooth warp whose local rate swings ``1/(1 +- amplitude)``."""
    omega = 2.0 * np.pi * cycles / max(n_total, 1)

    def warp(x: np.ndarray) -> np.ndarray:
        return x + (amplitude / omega) * (1.0 - np.cos(omega * x))

    return warp


# ----------------------------------------------------------------------
# Column builders
# ----------------------------------------------------------------------
def _five_tuple(seed: int, key: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                           np.ndarray, np.ndarray]:
    """A deterministic 5-tuple per flow key (uint64 array).

    Sources come from CGNAT client space; destinations spread across
    the three routed pools of the default spec, so a hashed flow is
    always forwardable unless a scenario overrides it.
    """
    h_src = hash_u64(seed, STREAM_SRC, key)
    src = np.uint64(CLIENT_BASE) + h_src % np.uint64(1 << 22)
    h_dst = hash_u64(seed, STREAM_DST, key)
    pool = h_dst % np.uint64(3)
    host = h_dst >> np.uint64(8)
    pool_10 = np.uint64(_ip(10, 0, 0, 0)) + host % np.uint64(1 << 24)
    pool_192 = np.uint64(_ip(192, 168, 0, 0)) + host % np.uint64(1 << 16)
    pool_172 = np.uint64(_ip(172, 16, 0, 0)) + host % np.uint64(1 << 20)
    dst = np.where(pool == 0, pool_10,
                   np.where(pool == 1, pool_192, pool_172))
    sport = (hash_u64(seed, STREAM_SPORT, key)
             % np.uint64(60_000)).astype(np.int64) + 1024
    services = np.array([80, 443, 53, 8080], dtype=np.int64)
    dport = services[(hash_u64(seed, STREAM_DPORT, key)
                      % np.uint64(4)).astype(np.int64)]
    proto = np.where(hash_u64(seed, STREAM_PROTO, key) % np.uint64(10)
                     < np.uint64(7), 6, 17).astype(np.int64)
    return src, dst, sport, dport, proto


def _benign_columns(seed: int, idx: np.ndarray, *, flows: int,
                    flow_keys: np.ndarray | None = None
                    ) -> dict[str, np.ndarray]:
    """The shared benign traffic mix (sans times), as a column dict.

    A small tail of anomalies keeps every verdict path warm: ~2% of
    packets target the DENY prefix, ~1% an unrouted prefix, and ~1%
    carry no destination header at all.
    """
    if flow_keys is None:
        flow = (uniforms(seed, STREAM_FLOW, idx)
                * flows).astype(np.int64)
        flow_keys = flow.astype(np.uint64)
    else:
        flow = flow_keys.astype(np.int64)
    src, dst, sport, dport, proto = _five_tuple(seed, flow_keys)

    kind = uniforms(seed, STREAM_KIND, idx)
    h_kind = hash_u64(seed, STREAM_KIND, idx)
    denied = np.uint64(DENIED_BASE) + h_kind % np.uint64(256)
    unrouted = np.uint64(UNROUTED_BASE) + h_kind % np.uint64(1 << 24)
    dst = np.where(kind < 0.02, denied,
                   np.where(kind < 0.03, unrouted, dst))
    has_dst = kind >= 0.04
    # keep (0.03, 0.04) as "no destination header" packets
    has_dst = ~((kind >= 0.03) & (kind < 0.04))

    u_size = uniforms(seed, STREAM_SIZE, idx)
    tail = (64.0 + (u_size - 0.8) / 0.2 * 1336.0).astype(np.int64)
    sizes = np.where(u_size < 0.5, 1500,
                     np.where(u_size < 0.8, 576, tail)).astype(np.int64)

    prio = np.where(hash_u64(seed, STREAM_PRIORITY, flow_keys)
                    % np.uint64(100) < np.uint64(15), 0, 1
                    ).astype(np.int64)
    return {"sizes_bytes": sizes, "flow_ids": flow,
            "priorities": prio, "src_ip": src, "dst_ip": dst,
            "src_port": sport, "dst_port": dport, "protocol": proto,
            "has_dst": has_dst}


def _window_mask(idx: np.ndarray, n_total: int, x0: float,
                 x1: float) -> np.ndarray:
    x = idx.astype(np.float64)
    return (x >= x0 * n_total) & (x < x1 * n_total)


# ----------------------------------------------------------------------
# Scenario model + registry
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class Scenario:
    """One named, seeded workload.

    ``columns_fn(seed, idx, n_total)`` must be a pure function of the
    global packet indices — that is what makes streams chunk-size
    invariant and resumable.  ``meta`` carries the behavioural window
    hints the regression suites key on (``flood_window``,
    ``flood_port``, ``churn_window``); ``invariants`` documents, in
    prose, what each scenario gates.
    """

    name: str
    description: str
    default_packets: int
    benign: bool
    invariants: tuple[str, ...]
    columns_fn: Callable[[int, np.ndarray, int], ChunkColumns]
    meta: Mapping[str, object] = field(default_factory=dict)

    def columns(self, seed: int, start: int, count: int,
                n_total: int) -> ChunkColumns:
        """Generate the columns of packets ``[start, start+count)``."""
        if start < 0 or count < 0:
            raise ValueError(f"bad index range: {start!r}+{count!r}")
        idx = np.arange(start, start + count, dtype=np.uint64)
        return self.columns_fn(seed, idx, int(n_total))

    def stream(self, seed: int = 0, n_packets: int | None = None,
               chunk_size: int = 65_536) -> Iterator[ChunkColumns]:
        """Stream the scenario as bounded-memory column chunks."""
        if chunk_size < 1:
            raise ValueError(f"chunk size must be >= 1: {chunk_size!r}")
        n = self.default_packets if n_packets is None else int(n_packets)
        if n < 0:
            raise ValueError(f"packet count must be >= 0: {n!r}")
        for start in range(0, n, chunk_size):
            yield self.columns(seed, start, min(chunk_size, n - start), n)


_REGISTRY: dict[str, Scenario] = {}


def register_scenario(entry: Scenario) -> Scenario:
    """Register a scenario under its name (unique, returns it)."""
    if entry.name in _REGISTRY:
        raise ValueError(f"scenario {entry.name!r} already registered")
    _REGISTRY[entry.name] = entry
    return entry


def scenario(name: str) -> Scenario:
    """Look up a registered scenario by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"unknown scenario {name!r}; registered: {known}") from None


def scenario_names() -> tuple[str, ...]:
    """Every registered scenario name, sorted."""
    return tuple(sorted(_REGISTRY))


def iter_scenarios() -> tuple[Scenario, ...]:
    """Every registered scenario, sorted by name."""
    return tuple(_REGISTRY[name] for name in scenario_names())


# ----------------------------------------------------------------------
# The catalogue
# ----------------------------------------------------------------------
def _elephants_mice(seed: int, idx: np.ndarray,
                    n_total: int) -> ChunkColumns:
    n_flows = 2048
    flow_axis = np.arange(n_flows, dtype=np.uint64)
    weights = pareto(uniforms(seed, STREAM_WEIGHT, flow_axis), alpha=1.1)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    flow = np.clip(np.searchsorted(cdf, uniforms(seed, STREAM_FLOW, idx),
                                   side="right"), 0, n_flows - 1)
    keys = flow.astype(np.uint64)
    columns = _benign_columns(seed, idx, flows=n_flows, flow_keys=keys)
    elephant = weights[flow] >= np.quantile(weights, 0.98)
    mice = integers(seed, STREAM_SIZE, idx, 64, 700)
    columns["sizes_bytes"] = np.where(elephant, 1500, mice)
    columns["times_s"] = _times(seed, idx, _BASE_GAP_S)
    return ChunkColumns(**columns)


def _diurnal(seed: int, idx: np.ndarray, n_total: int) -> ChunkColumns:
    columns = _benign_columns(seed, idx, flows=512)
    warp = _diurnal_warp(n_total, cycles=2.0, amplitude=0.6)
    columns["times_s"] = _times(seed, idx, _BASE_GAP_S, warp)
    return ChunkColumns(**columns)


def _flash_crowd(seed: int, idx: np.ndarray,
                 n_total: int) -> ChunkColumns:
    x0, x1, boost = 0.45, 0.70, 8.0
    columns = _benign_columns(seed, idx, flows=512)
    surge = _window_mask(idx, n_total, x0, x1)
    crowd = surge & (uniforms(seed, STREAM_MIX, idx) < 0.85)
    # ~6-packet flowlets from globally unique clients, all aimed at
    # one hot destination behind port 1.
    flowlet = idx // np.uint64(6)
    keys = np.where(crowd, np.uint64(1) << np.uint64(40), np.uint64(0)) \
        + flowlet
    c_src, _, c_sport, _, _ = _five_tuple(seed, keys)
    columns["src_ip"] = np.where(crowd, c_src, columns["src_ip"])
    columns["dst_ip"] = np.where(crowd, np.uint64(HOT_IP),
                                 columns["dst_ip"])
    columns["src_port"] = np.where(crowd, c_sport, columns["src_port"])
    columns["dst_port"] = np.where(crowd, 443, columns["dst_port"])
    columns["protocol"] = np.where(crowd, 6, columns["protocol"])
    columns["priorities"] = np.where(crowd, 1, columns["priorities"])
    columns["has_dst"] = columns["has_dst"] | crowd
    columns["flow_ids"] = np.where(
        crowd, _CROWD_FLOWS + flowlet.astype(np.int64),
        columns["flow_ids"])
    columns["sizes_bytes"] = np.where(
        crowd, integers(seed, STREAM_SIZE, idx, 200, 700),
        columns["sizes_bytes"])
    columns["times_s"] = _times(seed, idx, _BASE_GAP_S,
                                _surge_warp(n_total, x0, x1, boost))
    return ChunkColumns(**columns)


def _syn_flood(seed: int, idx: np.ndarray, n_total: int) -> ChunkColumns:
    x0, x1, boost = 0.30, 0.80, 25.0
    columns = _benign_columns(seed, idx, flows=256)
    window = _window_mask(idx, n_total, x0, x1)
    flood = window & (uniforms(seed, STREAM_MIX, idx) < 0.96)
    spoofed = hash_u64(seed, STREAM_SRC, idx + np.uint64(1 << 32)) \
        % np.uint64(1 << 32) | np.uint64(1)
    columns["src_ip"] = np.where(flood, spoofed, columns["src_ip"])
    columns["dst_ip"] = np.where(flood, np.uint64(VICTIM_IP),
                                 columns["dst_ip"])
    columns["src_port"] = np.where(
        flood, integers(seed, STREAM_SPORT, idx, 1024, 65_535),
        columns["src_port"])
    columns["dst_port"] = np.where(flood, 80, columns["dst_port"])
    columns["protocol"] = np.where(flood, 6, columns["protocol"])
    columns["sizes_bytes"] = np.where(flood, 64,
                                      columns["sizes_bytes"])
    columns["priorities"] = np.where(flood, 1, columns["priorities"])
    columns["has_dst"] = columns["has_dst"] | flood
    columns["flow_ids"] = np.where(flood,
                                   _SYN_FLOWS + idx.astype(np.int64),
                                   columns["flow_ids"])
    columns["times_s"] = _times(seed, idx, _BASE_GAP_S,
                                _surge_warp(n_total, x0, x1, boost))
    return ChunkColumns(**columns)


def _amplification_flood(seed: int, idx: np.ndarray,
                         n_total: int) -> ChunkColumns:
    x0, x1, boost = 0.35, 0.75, 12.0
    columns = _benign_columns(seed, idx, flows=256)
    window = _window_mask(idx, n_total, x0, x1)
    flood = window & (uniforms(seed, STREAM_MIX, idx) < 0.90)
    reflector = (hash_u64(seed, STREAM_SRC, idx) % np.uint64(512)
                 ).astype(np.int64)
    r_src = np.uint64(_ip(198, 18, 0, 0)) + reflector.astype(np.uint64)
    columns["src_ip"] = np.where(flood, r_src, columns["src_ip"])
    columns["dst_ip"] = np.where(flood, np.uint64(VICTIM_IP),
                                 columns["dst_ip"])
    columns["src_port"] = np.where(flood, 53, columns["src_port"])
    # victim-side ephemeral ports rotate every 64 packets, so the
    # reflected flows also churn the flow cache.
    ephemeral = (hash_u64(seed, STREAM_DPORT, idx // np.uint64(64))
                 % np.uint64(2048)).astype(np.int64) + 1024
    columns["dst_port"] = np.where(flood, ephemeral,
                                   columns["dst_port"])
    columns["protocol"] = np.where(flood, 17, columns["protocol"])
    columns["sizes_bytes"] = np.where(
        flood, integers(seed, STREAM_SIZE, idx, 1200, 1501),
        columns["sizes_bytes"])
    columns["priorities"] = np.where(flood, 1, columns["priorities"])
    columns["has_dst"] = columns["has_dst"] | flood
    columns["flow_ids"] = np.where(flood, _AMP_FLOWS + reflector,
                                   columns["flow_ids"])
    columns["times_s"] = _times(seed, idx, _BASE_GAP_S,
                                _surge_warp(n_total, x0, x1, boost))
    return ChunkColumns(**columns)


def _scan_sweep(seed: int, idx: np.ndarray, n_total: int) -> ChunkColumns:
    columns = _benign_columns(seed, idx, flows=128)
    scan = uniforms(seed, STREAM_MIX, idx) < 0.90
    # Sequential sweep of an unrouted /8; every 8th probe lands on a
    # routed pool so forwarding stays warm.
    sweep_dst = np.uint64(UNROUTED_BASE) + idx % np.uint64(1 << 24)
    probe_routed = (idx % np.uint64(8)) == np.uint64(7)
    _, routed_dst, _, _, _ = _five_tuple(seed, idx)
    dst = np.where(probe_routed, routed_dst, sweep_dst)
    columns["src_ip"] = np.where(scan, np.uint64(SCANNER_IP),
                                 columns["src_ip"])
    columns["dst_ip"] = np.where(scan, dst, columns["dst_ip"])
    columns["src_port"] = np.where(scan, 54_321, columns["src_port"])
    columns["dst_port"] = np.where(scan,
                                   (idx % np.uint64(1024)
                                    ).astype(np.int64) + 1,
                                   columns["dst_port"])
    columns["protocol"] = np.where(scan, 6, columns["protocol"])
    columns["sizes_bytes"] = np.where(scan, 60, columns["sizes_bytes"])
    columns["priorities"] = np.where(scan, 1, columns["priorities"])
    columns["has_dst"] = columns["has_dst"] | scan
    columns["flow_ids"] = np.where(scan,
                                   _SCAN_FLOWS + idx.astype(np.int64),
                                   columns["flow_ids"])
    columns["times_s"] = _times(seed, idx, 2.0 * _BASE_GAP_S)
    return ChunkColumns(**columns)


def _cache_churn(seed: int, idx: np.ndarray, n_total: int) -> ChunkColumns:
    x = idx.astype(np.float64)
    churn = (x >= 0.30 * n_total) & (x < 0.70 * n_total)
    # Warm/recovery phases reuse 64 flows (well under the cache
    # capacity); the churn phase makes every packet a fresh 5-tuple,
    # the worst case for any LRU.
    keys = np.where(churn, np.uint64(_CHURN_FLOWS) + idx,
                    idx % np.uint64(64))
    columns = _benign_columns(seed, idx, flows=64, flow_keys=keys)
    # No anomaly tail here: hit-rate assertions want pure phases.
    columns["has_dst"] = np.ones(len(idx), dtype=bool)
    _, dst, _, _, _ = _five_tuple(seed, keys)
    columns["dst_ip"] = dst
    columns["sizes_bytes"] = integers(seed, STREAM_SIZE, idx, 256, 1200)
    columns["flow_ids"] = np.where(
        churn, _CHURN_FLOWS + idx.astype(np.int64),
        (idx % np.uint64(64)).astype(np.int64))
    columns["times_s"] = _times(seed, idx, _BASE_GAP_S)
    return ChunkColumns(**columns)


def _traffic_classes(seed: int, idx: np.ndarray,
                     n_total: int) -> ChunkColumns:
    # Three interleaved application classes, one per packet index mod
    # 3: DNS-style UDP chatter (small, port 53), transactional TCP
    # (mid-size, port 443) and bulk TCP (near-MTU).  Class is a pure
    # function of the index so tests can predict the expected egress
    # port of every packet without replaying the stream.
    cls = (idx % np.uint64(3)).astype(np.int64)
    keys = idx % np.uint64(_CLASS_FLOWS)
    columns = _benign_columns(seed, idx, flows=_CLASS_FLOWS,
                              flow_keys=keys)
    # Clean, fully-routable stream: the steering gates want every
    # packet to reach the classifier (no ACL/no-route/parse losses).
    columns["has_dst"] = np.ones(len(idx), dtype=bool)
    _, dst, _, _, _ = _five_tuple(seed, keys)
    columns["dst_ip"] = dst
    small = integers(seed, STREAM_SIZE, idx, 80, 300)
    mid = integers(seed, STREAM_MIX, idx, 400, 1000)
    bulk = integers(seed, STREAM_WEIGHT, idx, 1200, 1500)
    columns["sizes_bytes"] = np.select([cls == 0, cls == 1],
                                       [small, mid], bulk)
    columns["dst_port"] = np.where(cls == 0, 53, 443).astype(np.int64)
    columns["protocol"] = np.where(cls == 0, 17, 6).astype(np.int64)
    columns["times_s"] = _times(seed, idx, _BASE_GAP_S)
    return ChunkColumns(**columns)


def traffic_classes_tree():
    """The fitted-by-hand tree the ``traffic_classes`` stream assumes.

    Features are ``(size_bytes, dst_port, protocol)``: UDP (protocol
    17) is the DNS class, TCP splits on size at 1100 B into the
    transactional and bulk classes.  Every class sits far from both
    thresholds, so analog margins never blur the decision.
    """
    from repro.netfunc.decision_tree import CARTTree, TreeNode

    root = TreeNode(
        feature=2, threshold=11.5,
        left=TreeNode(feature=0, threshold=1100.0,
                      left=TreeNode(prediction=1),
                      right=TreeNode(prediction=2)),
        right=TreeNode(prediction=0))
    return CARTTree.from_root(root, n_features=3)


def traffic_classes_spec(**overrides):
    """The default spec with the aCAM classifier stage installed.

    Classes steer to their own egress ports (class ``i`` -> port
    ``i``), overriding the destination-based LPM decision, so the
    scenario gates can assert per-class steering end to end.
    """
    from repro.acam.compiler import classifier_spec_from_tree

    classifier = classifier_spec_from_tree(
        traffic_classes_tree(),
        ("size_bytes", "dst_port", "protocol"),
        class_to_port=((0, 0), (1, 1), (2, 2)),
        margin=4.0)
    return default_switch_spec(classifier=classifier, **overrides)


def traffic_classes_expected(idx: np.ndarray) -> np.ndarray:
    """Expected class (== steered egress port) per packet index."""
    return (np.asarray(idx, dtype=np.uint64)
            % np.uint64(3)).astype(np.int64)


register_scenario(Scenario(
    name="elephants_mice",
    description="Heavy-tailed flow sizes: a few Pareto elephants "
                "carry most bytes over thousands of mice.",
    default_packets=200_000, benign=True,
    invariants=("flow cache stays effective on the heavy tail",
                "no degradation trips on healthy hardware",
                "queue delay stays inside the AQM envelope"),
    columns_fn=_elephants_mice))

register_scenario(Scenario(
    name="diurnal",
    description="Smooth diurnal load curve (two cycles, ~2.5:1 "
                "peak-to-trough arrival rate).",
    default_packets=200_000, benign=True,
    invariants=("AQM pressure follows the load curve",
                "no degradation trips on healthy hardware"),
    columns_fn=_diurnal,
    meta={"peak_window": (0.325, 0.45), "trough_window": (0.075, 0.20)}))

register_scenario(Scenario(
    name="flash_crowd",
    description="8x arrival surge of short flows from fresh clients, "
                "all aimed at one hot destination.",
    default_packets=150_000, benign=True,
    invariants=("AQM drop probability rises during the surge",
                "queue delay stays bounded through the surge",
                "no degradation trips on healthy hardware"),
    columns_fn=_flash_crowd,
    meta={"flood_window": (0.45, 0.70), "flood_port": 1}))

register_scenario(Scenario(
    name="syn_flood",
    description="25x spoofed-source SYN flood (64 B packets) against "
                "one victim behind port 0.",
    default_packets=150_000, benign=False,
    invariants=("drop response engages during the flood",
                "queue delay stays bounded through the flood",
                "spoofed sources churn the flow cache"),
    columns_fn=_syn_flood,
    meta={"flood_window": (0.30, 0.80), "flood_port": 0}))

register_scenario(Scenario(
    name="amplification_flood",
    description="12x UDP amplification flood: 512 reflectors firing "
                "1.2-1.5 kB payloads at one victim.",
    default_packets=150_000, benign=False,
    invariants=("AQM drop probability saturates under byte overload",
                "queue delay stays bounded through the flood"),
    columns_fn=_amplification_flood,
    meta={"flood_window": (0.35, 0.75), "flood_port": 0}))

register_scenario(Scenario(
    name="scan_sweep",
    description="Sequential TCP scan of an unrouted /8 from one "
                "scanner (every probe a fresh 5-tuple).",
    default_packets=120_000, benign=True,
    invariants=("most probes die as no-route drops",
                "flow cache hit rate collapses (every probe unique)",
                "no degradation trips on healthy hardware"),
    columns_fn=_scan_sweep,
    meta={"min_no_route_share": 0.6}))

register_scenario(Scenario(
    name="cache_churn",
    description="Adversarial 5-tuple churn: unique flows for the "
                "middle 40% of the stream, 64 repeat flows around it.",
    default_packets=150_000, benign=True,
    invariants=("cache hit rate collapses under churn",
                "cache hit rate recovers after churn ends",
                "no degradation trips on healthy hardware"),
    columns_fn=_cache_churn,
    meta={"churn_window": (0.30, 0.70)}))

register_scenario(Scenario(
    name="traffic_classes",
    description="Three interleaved application classes (DNS-style "
                "UDP, transactional TCP, bulk TCP) for the aCAM "
                "classifier to steer to per-class ports.",
    default_packets=120_000, benign=True,
    invariants=("aCAM classifier steers each class to its own port",
                "every queued packet lands on its class's port",
                "no degradation trips on healthy hardware"),
    columns_fn=_traffic_classes,
    meta={"n_classes": 3, "class_ports": (0, 1, 2)}))


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
def default_switch_spec(**overrides):
    """The matrix's switch: 3 routed ports, ACL, supervised AQMs.

    200 Mb/s ports put :data:`BASE_RATE_PPS` at ~40% utilisation;
    16k-packet per-class queues are deep enough (~80 ms of 64 B
    floods, seconds of full-size traffic) that the AQM, not tail
    overflow, governs flood behaviour.
    """
    from repro.dataplane.switch import SwitchSpec
    from repro.netfunc.firewall import Action, FirewallRule

    settings: dict = dict(
        n_ports=3,
        routes=(("10.0.0.0/8", 0), ("192.168.0.0/16", 1),
                ("172.16.0.0/12", 2)),
        firewall_rules=(FirewallRule(action=Action.DENY,
                                     dst_prefix="203.0.113.0/24"),),
        port_rate_bps=200e6,
        queue_capacity=16_384,
        flow_cache_size=4096,
        graceful_degradation=True,
        supervised=True)
    settings.update(overrides)
    return SwitchSpec(**settings)


@dataclass
class ScenarioWindow:
    """Behavioural counters over one window of a scenario run."""

    index: int
    t_start_s: float
    t_end_s: float
    offered: int = 0
    queued: int = 0
    aqm_drops: int = 0
    overflow_drops: int = 0
    acl_drops: int = 0
    no_route_drops: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    max_delay_ewma_s: float = 0.0
    #: Chunk-tick average of the worst-port delay EWMA — the window's
    #: *sustained* delay, where the max above also catches one-tick
    #: overshoots at congestion onsets.
    mean_delay_ewma_s: float = 0.0
    max_backlog_pkts: int = 0
    max_pdp: float = 0.0

    @property
    def cache_hit_rate(self) -> float:
        probes = self.cache_hits + self.cache_misses
        return self.cache_hits / probes if probes else 0.0

    @property
    def aqm_drop_rate(self) -> float:
        return self.aqm_drops / self.offered if self.offered else 0.0

    @property
    def drop_rate(self) -> float:
        drops = (self.aqm_drops + self.overflow_drops
                 + self.acl_drops + self.no_route_drops)
        return drops / self.offered if self.offered else 0.0

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "t_start_s": self.t_start_s,
            "t_end_s": self.t_end_s,
            "offered": self.offered,
            "queued": self.queued,
            "aqm_drops": self.aqm_drops,
            "overflow_drops": self.overflow_drops,
            "acl_drops": self.acl_drops,
            "no_route_drops": self.no_route_drops,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": round(self.cache_hit_rate, 6),
            "aqm_drop_rate": round(self.aqm_drop_rate, 6),
            "drop_rate": round(self.drop_rate, 6),
            "max_delay_ewma_s": self.max_delay_ewma_s,
            "mean_delay_ewma_s": self.mean_delay_ewma_s,
            "max_backlog_pkts": self.max_backlog_pkts,
            "max_pdp": self.max_pdp,
        }


@dataclass
class ScenarioReport:
    """Everything one scenario run observed, JSON-able for BENCH."""

    scenario: str
    seed: int
    n_packets: int
    chunk_size: int
    admission_chunk: int
    duration_s: float
    wall_s: float
    throughput_pps: float
    verdict_counts: dict[str, int]
    windows: list[ScenarioWindow]
    cache_hits: int
    cache_misses: int
    degraded_tables: tuple[str, ...]
    fallback_events: int
    retries: int
    energy_total_j: float
    energy_breakdown: dict[str, float]
    verdicts: list[str] | None = None
    ports: list[int | None] | None = None
    metrics: dict | None = None

    @property
    def cache_hit_rate(self) -> float:
        probes = self.cache_hits + self.cache_misses
        return self.cache_hits / probes if probes else 0.0

    @property
    def max_delay_ewma_s(self) -> float:
        return max((w.max_delay_ewma_s for w in self.windows),
                   default=0.0)

    @property
    def max_pdp(self) -> float:
        return max((w.max_pdp for w in self.windows), default=0.0)

    @property
    def energy_per_packet_j(self) -> float:
        return self.energy_total_j / self.n_packets \
            if self.n_packets else 0.0

    def window_series(self, attribute: str) -> list:
        """One window-indexed series (e.g. ``"aqm_drop_rate"``)."""
        return [getattr(window, attribute) for window in self.windows]

    def windows_in(self, fraction_window: tuple[float, float]
                   ) -> list[ScenarioWindow]:
        """Windows whose packet range lies inside a stream fraction."""
        n = len(self.windows)
        lo = int(np.ceil(fraction_window[0] * n))
        hi = int(np.floor(fraction_window[1] * n))
        return self.windows[lo:hi]

    def to_json(self) -> dict:
        payload = {
            "scenario": self.scenario,
            "seed": self.seed,
            "n_packets": self.n_packets,
            "chunk_size": self.chunk_size,
            "admission_chunk": self.admission_chunk,
            "duration_s": round(self.duration_s, 6),
            "wall_s": round(self.wall_s, 4),
            "throughput_pps": round(self.throughput_pps, 1),
            "verdict_counts": dict(self.verdict_counts),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": round(self.cache_hit_rate, 6),
            "max_delay_ewma_s": self.max_delay_ewma_s,
            "max_pdp": self.max_pdp,
            "degraded_tables": list(self.degraded_tables),
            "fallback_events": self.fallback_events,
            "retries": self.retries,
            "energy_total_j": self.energy_total_j,
            "energy_per_packet_j": self.energy_per_packet_j,
            "energy_breakdown": dict(self.energy_breakdown),
            "windows": [window.to_json() for window in self.windows],
        }
        if self.metrics is not None:
            payload["metrics"] = self.metrics
        return payload


def scenario_switch(spec, seed: int, *, observability=None,
                    **aqm_kwargs):
    """The switch :func:`run_scenario` stands for one (spec, seed).

    Each port's AQM is a ``PCAMAQM(**aqm_kwargs)`` seeded by ``(seed,
    port, 0xA11A)``, wrapped in a
    :class:`~repro.robustness.degradation.DegradingAQM` when the spec
    asks for graceful degradation, and booking its searches into the
    switch's pipeline ledger, so the whole switch is one energy
    account.  Fabric shards and the control gate build the same
    switch, so a one-shard fabric is behaviourally this one.
    """
    from repro.dataplane.switch import build_switch
    from repro.netfunc.aqm.pcam_aqm import PCAMAQM
    from repro.robustness.degradation import DegradingAQM

    ports = iter(range(spec.n_ports))

    def aqm_factory():
        analog = PCAMAQM(
            rng=np.random.default_rng((seed, next(ports), 0xA11A)),
            **aqm_kwargs)
        return DegradingAQM(analog) if spec.graceful_degradation \
            else analog

    processor = build_switch(spec, observability=observability,
                             aqm_factory=aqm_factory)
    manager = processor.traffic_manager
    for port in range(spec.n_ports):
        aqm = manager.aqm(port)
        getattr(aqm, "analog", aqm).ledger = processor.ledger
    return processor


def _drain(processor, credits: list[float], t_from: float,
           t_until: float, port_rate_bps: float) -> None:
    """Serve egress queues at line rate over [t_from, t_until).

    Every port accrues byte credit for the elapsed simulated time, and
    one ``serve_ports`` call serves them all (head drops included)
    until each port's credit is spent; an idle port forfeits its
    credit, as real silicon forfeits idle slots.
    """
    if t_until <= t_from:
        return
    manager = getattr(processor, "traffic_manager", processor)
    budget = (t_until - t_from) * port_rate_bps / 8.0
    credits[:] = manager.serve_ports(credits, budget, t_until)


def run_scenario(scenario_or_name: "Scenario | str", *, seed: int = 0,
                 n_packets: int | None = None, chunk_size: int = 8192,
                 admission_chunk: int = 256, spec=None,
                 observe: bool = False, n_windows: int = 20,
                 collect_results: bool = False,
                 processor_factory=None) -> ScenarioReport:
    """Run one scenario through a freshly built switch, end to end.

    The stream is generated in ``chunk_size`` column chunks (bounded
    memory) and admitted in ``admission_chunk`` slices so simulated
    time advances at sub-window granularity: before each slice the
    egress queues drain at line rate up to the slice's start time,
    then the slice's columns ride ``process_batch`` through the
    switch's chunk walk (no per-packet objects are built).
    Windowed counters (drops by cause, cache hits/misses, delay EWMA,
    backlog, last PDP) land in ``n_windows`` equal packet-count
    windows on the returned report.

    ``observe=True`` attaches an
    :class:`~repro.observability.hub.Observability` hub and folds its
    final snapshot into the report (the per-scenario telemetry
    artifact).  ``collect_results=True`` additionally keeps the
    per-packet verdict/port sequences — the golden tests digest them.

    ``processor_factory(spec, seed)``, when given, replaces the
    default :func:`scenario_switch` with any processor exposing the
    duck-typed surface — e.g. a
    :class:`~repro.fabric.fabric.SwitchFabric` via
    :func:`~repro.fabric.scenario.fabric_scenario_factory`.  Besides
    ``process_batch``, the verdict counters, ``flow_cache`` and the
    energy totals, that surface is egress service, ``slice_extremes()``
    (windowed maxima) and ``robustness_stats()`` (fallbacks, retries,
    degraded tables); a processor with a ``close()`` is closed before
    returning.  Egress service is one call per admission slice,
    ``serve_ports(credits, budget, now) -> credits``, on the
    processor's ``traffic_manager`` or, without one, on the processor
    itself: port ``p`` is offered ``credits[p] + budget`` bytes of
    line time at simulated time ``now``, and the list returned holds
    each port's credit left (an overdraft <= 0 carries into the next
    slice; an idle port forfeits its credit and returns 0.0).
    """
    from repro.dataplane.results import Verdict

    entry = scenario_or_name if isinstance(scenario_or_name, Scenario) \
        else scenario(scenario_or_name)
    n = entry.default_packets if n_packets is None else int(n_packets)
    if n < 1:
        raise ValueError(f"need at least one packet: {n!r}")
    if admission_chunk < 1:
        raise ValueError(
            f"admission chunk must be >= 1: {admission_chunk!r}")
    if n_windows < 1:
        raise ValueError(f"need at least one window: {n_windows!r}")
    if spec is None:
        spec = default_switch_spec()

    observability = None
    if observe and processor_factory is None:
        from repro.observability import Observability
        observability = Observability()

    if processor_factory is not None:
        processor = processor_factory(spec, seed)
    else:
        processor = scenario_switch(spec, seed,
                                    observability=observability)

    boundaries = [int(b) for b in
                  np.round(np.linspace(n / n_windows, n, n_windows))]
    windows: list[ScenarioWindow] = []
    current = ScenarioWindow(index=0, t_start_s=0.0, t_end_s=0.0)
    previous = {"queued": 0, "aqm": 0, "overflow": 0, "acl": 0,
                "no_route": 0, "hits": 0, "misses": 0, "offered": 0}
    verdicts: list[str] | None = [] if collect_results else None
    out_ports: list[int | None] | None = [] if collect_results else None

    def cumulative() -> dict[str, int]:
        cache = processor.flow_cache
        counts = processor.verdict_counts
        return {
            "offered": processor.processed,
            "queued": counts[Verdict.QUEUED],
            "aqm": counts[Verdict.DROPPED_AQM],
            "overflow": counts[Verdict.DROPPED_OVERFLOW],
            "acl": counts[Verdict.DROPPED_ACL],
            "no_route": counts[Verdict.DROPPED_NO_ROUTE],
            "hits": cache.hits if cache is not None else 0,
            "misses": cache.misses if cache is not None else 0,
        }

    def close_window(t_now: float) -> None:
        nonlocal current, previous, delay_sum, delay_ticks
        totals = cumulative()
        if delay_ticks:
            current.mean_delay_ewma_s = delay_sum / delay_ticks
        delay_sum = 0.0
        delay_ticks = 0
        current.offered = totals["offered"] - previous["offered"]
        current.queued = totals["queued"] - previous["queued"]
        current.aqm_drops = totals["aqm"] - previous["aqm"]
        current.overflow_drops = totals["overflow"] \
            - previous["overflow"]
        current.acl_drops = totals["acl"] - previous["acl"]
        current.no_route_drops = totals["no_route"] \
            - previous["no_route"]
        current.cache_hits = totals["hits"] - previous["hits"]
        current.cache_misses = totals["misses"] - previous["misses"]
        current.t_end_s = t_now
        windows.append(current)
        previous = totals
        current = ScenarioWindow(index=len(windows), t_start_s=t_now,
                                 t_end_s=t_now)

    started = time.perf_counter()
    credits = [0.0] * spec.n_ports
    t_prev = 0.0
    t_last = 0.0
    processed = 0
    next_boundary = 0
    delay_sum = 0.0
    delay_ticks = 0

    for columns in entry.stream(seed=seed, n_packets=n,
                                chunk_size=chunk_size):
        times = columns.times_s
        for start in range(0, len(columns), admission_chunk):
            chunk = columns.slice(start, start + admission_chunk)
            t_now = float(times[start])
            _drain(processor, credits, t_prev, t_now,
                   spec.port_rate_bps)
            results = processor.process_batch(chunk, now=t_now,
                                              chunk_size=len(chunk))
            if verdicts is not None:
                verdicts.extend(results.verdict_values)
                out_ports.extend(results.port_values)
            t_prev = t_now
            t_last = float(times[min(start + len(chunk),
                                     len(times)) - 1])
            processed += len(chunk)
            delay_max, pdp_max, backlog_max = processor.slice_extremes()
            delay_sum += delay_max
            delay_ticks += 1
            current.max_delay_ewma_s = max(
                current.max_delay_ewma_s, delay_max)
            current.max_pdp = max(current.max_pdp, pdp_max)
            current.max_backlog_pkts = max(
                current.max_backlog_pkts, backlog_max)
            while next_boundary < len(boundaries) \
                    and processed >= boundaries[next_boundary]:
                close_window(t_last)
                next_boundary += 1

    # Final drain: let the tail of the stream leave the queues.
    _drain(processor, credits, t_prev, t_last + 0.05,
           spec.port_rate_bps)
    if next_boundary < len(boundaries):
        close_window(t_last)

    wall = time.perf_counter() - started
    totals = cumulative()
    robustness = processor.robustness_stats()
    if observability is not None:
        metrics = observability.snapshot()
    elif observe and hasattr(processor, "poll_metrics"):
        metrics = processor.poll_metrics()
    else:
        metrics = None
    report = ScenarioReport(
        scenario=entry.name,
        seed=seed,
        n_packets=n,
        chunk_size=chunk_size,
        admission_chunk=admission_chunk,
        duration_s=t_last,
        wall_s=wall,
        throughput_pps=n / wall if wall > 0 else 0.0,
        verdict_counts={verdict.value: count for verdict, count
                        in processor.verdict_counts.items()},
        windows=windows,
        cache_hits=totals["hits"],
        cache_misses=totals["misses"],
        degraded_tables=tuple(robustness["degraded_tables"]),
        fallback_events=robustness["fallback_events"],
        retries=robustness["retries"],
        energy_total_j=processor.energy_total_j(),
        energy_breakdown=processor.energy_breakdown(),
        verdicts=verdicts,
        ports=out_ports,
        metrics=metrics)
    if processor_factory is not None:
        closer = getattr(processor, "close", None)
        if closer is not None:
            closer()
    return report


def publish_reports(reports: Sequence[ScenarioReport],
                    path: "str | Path") -> dict:
    """Write a report matrix as the ``BENCH_scenarios.json`` artifact."""
    document = {report.scenario: report.to_json()
                for report in reports}
    Path(path).write_text(json.dumps(document, indent=2,
                                     sort_keys=True) + "\n")
    return document
