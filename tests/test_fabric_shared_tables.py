"""Shards share one table set, and each still ends as a switch alone.

The fabric adopts shard 0's firewall and IP lookup for every shard and
classifies a slice's shards in one search per table.  These tests
replay a trace through fabrics of 2 and 4 shards, with the flow cache
on and off and a route and a firewall rule committed mid-trace, next
to one standalone processor per shard from the same factory fed that
shard's sub-chunks at the same ``now`` with the same ops.  Each shard
must end in exactly its standalone twin's state: ledger accounts and
charge events, energy by stage, stage runs, flow-cache counters,
telemetry and verdict counts.  A factory whose shards differ in their
tables is refused.
"""

import pytest

from tests.test_runtime_golden import build_processor, make_traffic

from repro.dataplane.fastpath import PacketBatch
from repro.fabric import SwitchFabric
from repro.netfunc.firewall import Action, FirewallRule

CHUNK = 30
NEW_ROUTE = ("198.51.100.0/24", 1)
NEW_RULE = FirewallRule(action=Action.DENY, src_prefix="5.6.7.8/32")


def chunks(packets):
    return [packets[start:start + CHUNK]
            for start in range(0, len(packets), CHUNK)]


def state(processor) -> dict:
    """Everything a shard accumulates, as comparable values."""
    cache = processor.flow_cache
    return {
        "ledger": processor.ledger.breakdown(),
        "events": processor.ledger.events,
        "by_stage": processor.energy_by_stage(),
        "stage_runs": dict(processor.stage_runs),
        "chunks": processor.chunks,
        "cache": None if cache is None else
        (cache.hits, cache.misses, cache.invalidations),
        "telemetry": processor.telemetry.snapshot(),
        "verdicts": dict(processor.verdict_counts),
    }


def run_fabric(n_shards: int, cache: int) -> SwitchFabric:
    fabric = SwitchFabric(lambda: build_processor(cache, None), n_shards)
    parts = chunks(make_traffic())
    for step, packets in enumerate(parts):
        if step == len(parts) // 2:
            fabric.controller.add_route(*NEW_ROUTE)
            fabric.controller.add_firewall_rule(NEW_RULE)
            fabric.controller.commit()
        fabric.process_batch(packets, now=0.1 * step, chunk_size=CHUNK)
    return fabric


def run_alone(fabric: SwitchFabric, shard: int, cache: int):
    """Shard ``shard``'s sub-chunks through a standalone processor."""
    processor = build_processor(cache, None)
    parts = chunks(make_traffic())
    for step, packets in enumerate(parts):
        if step == len(parts) // 2:
            processor.add_route(*NEW_ROUTE)
            processor.add_firewall_rule(NEW_RULE)
        batch = PacketBatch(packets)
        owner = fabric.rss.shard_of_columns(batch.src_ip, batch.dst_ip,
                                            batch.src_port, batch.dst_port)
        rows = (owner == shard).nonzero()[0]
        if len(rows):
            processor.process_batch(batch.take(rows), now=0.1 * step,
                                    chunk_size=len(rows))
    return processor


@pytest.mark.parametrize("cache", [4096, 0])
@pytest.mark.parametrize("n_shards", [2, 4])
def test_each_shard_ends_as_a_standalone_switch(n_shards, cache):
    fabric = run_fabric(n_shards, cache)
    busy = 0
    for index, shard in enumerate(fabric.shards):
        alone = run_alone(fabric, index, cache)
        assert state(shard.processor) == state(alone), f"shard {index}"
        busy += alone.chunks > 0
    assert busy > 1     # the trace really spreads across shards


def test_shards_classify_against_one_table_set():
    fabric = run_fabric(4, 4096)
    for shard in fabric.shards:
        assert shard.processor.firewall is fabric.firewall
        assert shard.processor.lookup is fabric.lookup
    # The commit wrote each table once.
    assert len(fabric.lookup) == 4 and len(fabric.firewall) == 2
    # A later table commit still empties every shard's flow cache.
    caches = [shard.processor.flow_cache for shard in fabric.shards]
    flushed = [cache.invalidations + (len(cache) > 0) for cache in caches]
    fabric.controller.add_route("100.64.0.0/10", 2).commit()
    assert [len(cache) for cache in caches] == [0] * len(caches)
    assert [cache.invalidations for cache in caches] == flushed


@pytest.mark.parametrize("differ", [
    lambda processor: processor.add_route("198.51.100.0/24", 2),
    lambda processor: processor.add_firewall_rule(NEW_RULE),
], ids=["route", "rule"])
def test_shards_with_different_tables_are_refused(differ):
    built = []

    def factory():
        processor = build_processor(4096, None)
        if len(built) == 2:
            differ(processor)
        built.append(processor)
        return processor

    with pytest.raises(ValueError, match="shard 2"):
        SwitchFabric(factory, 4)
