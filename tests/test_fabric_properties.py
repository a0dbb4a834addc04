"""Fabric law on fuzzed specs: N shards behave as one switch.

For a small random :class:`SwitchSpec` (1-4 ports, random routes,
random DENY/PERMIT rules, flow cache on or off, 1-3 priorities and a
queue deep enough that nothing overflows) and a random column stream
drawn from a small flow pool, a fabric of 1, 2 or 4 shards built from
that spec must reproduce the single switch exactly: per-row verdict
codes and ports, the energy breakdown, the merged telemetry snapshot
and the flow-cache hit and miss totals.

The law needs the regime the fabric's replay identity rests on: a
state-free admission policy (``TailDropAQM`` behind a deep queue, so
per-shard queue occupancy cannot change a verdict) and caches that
never evict (at most 300 rows from at most 8 flows).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.dataplane import SwitchSpec, build_switch
from repro.dataplane.fastpath import ip_to_u32
from repro.fabric import SwitchFabric
from repro.netfunc.aqm.base import TailDropAQM
from repro.netfunc.firewall import Action, FirewallRule
from repro.simnet.workloads import ChunkColumns

PREFIXES = ("10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24",
            "192.168.0.0/16", "172.16.0.0/12")
SOURCES = ("1.2.3.4", "5.6.7.8", "9.9.9.9")
DESTINATIONS = ("10.1.2.3", "10.7.0.1", "192.168.4.4", "172.16.9.9",
                "8.8.8.8")
PORTS = (80, 443, 53)
PROTOCOLS = (6, 17)
CHUNK_SIZES = (1, 7, 64, 4096)
SHARD_COUNTS = (1, 2, 4)


def prefix_or_wildcard(values):
    return st.one_of(st.none(), st.sampled_from(
        [f"{value}/32" for value in values]))


rules = st.builds(
    FirewallRule,
    action=st.sampled_from((Action.DENY, Action.PERMIT)),
    src_prefix=prefix_or_wildcard(SOURCES),
    dst_prefix=st.one_of(prefix_or_wildcard(DESTINATIONS),
                         st.sampled_from(PREFIXES)),
    dst_port=st.one_of(st.none(), st.sampled_from(PORTS)),
    protocol=st.one_of(st.none(), st.sampled_from(PROTOCOLS)))


@st.composite
def switch_specs(draw) -> SwitchSpec:
    n_ports = draw(st.integers(1, 4))
    routes = draw(st.lists(
        st.tuples(st.sampled_from(PREFIXES),
                  st.integers(0, n_ports - 1)),
        min_size=1, max_size=5, unique_by=lambda route: route[0]))
    return SwitchSpec(
        n_ports=n_ports, routes=tuple(routes),
        firewall_rules=tuple(draw(st.lists(rules, max_size=3))),
        flow_cache_size=draw(st.sampled_from((0, 4096))),
        n_priorities=draw(st.integers(1, 3)),
        queue_capacity=1_000_000)


flows = st.tuples(st.sampled_from(SOURCES), st.sampled_from(DESTINATIONS),
                  st.integers(1024, 1027), st.sampled_from(PORTS),
                  st.sampled_from(PROTOCOLS), st.sampled_from((True, False)))


@st.composite
def column_streams(draw) -> ChunkColumns:
    """1-300 rows, each a flow of a pool of 2-8 flows."""
    pool = draw(st.lists(flows, min_size=2, max_size=8))
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    picked = [pool[i] for i in rng.integers(len(pool), size=n)]
    src, dst, sport, dport, proto, has_dst = zip(*picked)
    return ChunkColumns(
        times_s=np.zeros(n), sizes_bytes=rng.integers(64, 1500, n),
        flow_ids=np.zeros(n), priorities=rng.integers(0, 3, n),
        src_ip=[ip_to_u32(ip) for ip in src],
        dst_ip=[ip_to_u32(ip) for ip in dst],
        src_port=sport, dst_port=dport, protocol=proto,
        has_dst=has_dst)


def observe(processor, results) -> dict:
    cache = processor.flow_cache
    return {
        "codes": results.codes.tolist(),
        "ports": results.ports.tolist(),
        "energy": processor.energy_breakdown(),
        "cache": (0, 0) if cache is None else (cache.hits, cache.misses),
    }


@settings(max_examples=40, deadline=None, derandomize=True)
@given(spec=switch_specs(), columns=column_streams(),
       chunk_size=st.sampled_from(CHUNK_SIZES))
def test_fabric_equals_the_switch(spec, columns, chunk_size):
    switch = build_switch(spec, aqm_factory=TailDropAQM)
    want = observe(switch, switch.process_batch(
        columns, now=0.5, chunk_size=chunk_size))
    want["telemetry"] = switch.telemetry.snapshot()
    for n_shards in SHARD_COUNTS:
        with SwitchFabric(lambda: build_switch(spec,
                                               aqm_factory=TailDropAQM),
                          n_shards) as fabric:
            got = observe(fabric, fabric.process_batch(
                columns, now=0.5, chunk_size=chunk_size))
            got["telemetry"] = fabric.telemetry_snapshot()
        assert got == want, f"{n_shards} shards"
