"""Fabric replay identity: N shards == the serial walk, byte for byte.

Replays the pinned runtime-golden traffic through fabrics of 1, 2 and
4 shards and demands *byte identity* with the serial golden
reference for every observable: verdict and port
sequences, verdict counts, telemetry tables/events/gauges, and the
energy breakdown (exact dyadic merge of the shard ledgers).

Why this holds (and when it wouldn't): steering is flow-consistent,
so per-chunk dedup sets partition cleanly; flow caches never evict at
this trace size, so per-shard LRU order is invisible; the ledger
books integer counts of fixed quanta, so summed shard ledgers equal
the serial ledger to the last ulp.  Identity is a *golden-regime*
contract — under cache-eviction pressure or state-dependent AQM
drops, sharding legitimately changes per-queue dynamics.
"""

import json

import pytest

from tests.test_runtime_golden import (
    CONFIGS,
    GOLDEN,
    build_processor,
    make_traffic,
)

from repro.fabric import SwitchFabric

SHARD_COUNTS = (1, 2, 4)


def canonical(value):
    return json.loads(json.dumps(value, sort_keys=True))


def observe_fabric(fabric, results):
    """The fabric-side mirror of the golden ``observe`` document."""
    ledger = fabric.energy_ledger()
    telemetry = fabric.telemetry_snapshot()
    return {
        "verdicts": [r.verdict.value for r in results],
        "ports": [r.port for r in results],
        "verdict_counts": {v.value: c for v, c
                           in fabric.verdict_counts.items()},
        "tables": telemetry["tables"],
        "events": telemetry["events"],
        "gauges": telemetry["gauges"],
        "energy_breakdown": {account: round(ledger.account(account), 28)
                             for account in ledger.breakdown()},
        "energy_total_j": round(ledger.total, 28),
    }


def replay(config: str, n_shards: int) -> dict:
    kind, chunk, cache, fault_seed = CONFIGS[config]
    fabric = SwitchFabric(lambda: build_processor(cache, fault_seed),
                          n_shards)
    try:
        packets = make_traffic()
        if kind == "scalar":
            results = [fabric.process(p, now=0.5) for p in packets]
        else:
            results = fabric.process_batch(packets, now=0.5,
                                           chunk_size=chunk)
        return observe_fabric(fabric, results)
    finally:
        fabric.close()


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_in_process_fabric_matches_golden(config, n_shards):
    observed = canonical(replay(config, n_shards))
    golden = GOLDEN[config]
    for key in golden:
        assert observed[key] == golden[key], \
            f"{config}/N={n_shards}: {key} diverged"


def test_energy_merge_is_exact_not_approximate():
    """The merged total equals the serial total bit-for-bit."""
    serial = build_processor(4096, None)
    serial.process_batch(make_traffic(), now=0.5, chunk_size=64)
    for n_shards in SHARD_COUNTS:
        fabric = SwitchFabric(lambda: build_processor(4096, None),
                              n_shards)
        try:
            fabric.process_batch(make_traffic(), now=0.5, chunk_size=64)
            assert fabric.energy_total_j() == serial.ledger.total
        finally:
            fabric.close()
