"""SwitchFabric unit behaviour: merges, egress, metrics, lifecycle."""

import numpy as np
import pytest

from tests.test_runtime_golden import build_processor, make_traffic

from repro.dataplane.results import Verdict
from repro.fabric import SwitchFabric, ToeplitzRSS
from repro.dataplane.telemetry import TelemetryCollector
from repro.simnet.scenarios import (
    default_switch_spec,
    scenario,
    scenario_switch,
)
from repro.fabric.scenario import build_fabric


def small_fabric(n_shards=2, **kwargs):
    return SwitchFabric(lambda: build_processor(4096, None), n_shards,
                        **kwargs)


def test_rejects_bad_construction():
    with pytest.raises(ValueError):
        small_fabric(0)
    with pytest.raises(ValueError):
        small_fabric(2, rss=ToeplitzRSS(3))


def test_process_matches_process_batch():
    with small_fabric() as batch_fab, small_fabric() as scalar_fab:
        packets = make_traffic(n=60)
        batched = batch_fab.process_batch(packets, now=0.5)
        singles = [scalar_fab.process(p, now=0.5) for p in packets]
        assert [r.verdict for r in batched] == \
            [r.verdict for r in singles]
        assert [r.port for r in batched] == [r.port for r in singles]


@pytest.mark.parametrize("chunk_size, error", [
    (0, ValueError), (-5, ValueError), (2.7, TypeError)])
def test_bad_chunk_size_raises_like_the_switch(chunk_size, error):
    packets = make_traffic(n=20)
    with pytest.raises(error) as on_switch:
        build_processor(4096, None).process_batch(
            packets, chunk_size=chunk_size)
    with small_fabric() as fabric:
        with pytest.raises(error) as on_fabric:
            fabric.process_batch(packets, chunk_size=chunk_size)
        assert str(on_fabric.value) == str(on_switch.value)
        assert fabric.processed == 0


def test_results_carry_original_packets_in_order():
    with small_fabric(4) as fabric:
        packets = make_traffic(n=40)
        results = fabric.process_batch(packets, now=0.5)
        assert [r.packet for r in results] == packets


def test_verdict_counts_and_processed_sum_across_shards():
    with small_fabric(4) as fabric:
        packets = make_traffic(n=120)
        results = fabric.process_batch(packets, now=0.5)
        assert fabric.processed == 120
        counts = fabric.verdict_counts
        assert sum(counts.values()) == 120
        assert counts[Verdict.QUEUED] == \
            sum(1 for r in results if r.verdict is Verdict.QUEUED)


def test_flow_cache_view_sums_shards():
    with small_fabric(2) as fabric:
        packets = make_traffic(n=240)
        fabric.process_batch(packets, now=0.5, chunk_size=64)
        view = fabric.flow_cache
        assert view.hits + view.misses > 0
        assert len(view) == view.entries > 0


def test_dequeue_round_robin_drains_all_shards():
    with small_fabric(4) as fabric:
        packets = make_traffic(n=240)
        results = fabric.process_batch(packets, now=0.5, chunk_size=64)
        queued = sum(1 for r in results if r.verdict is Verdict.QUEUED)
        drained = sum(len(fabric.drain(port, now=1.0))
                      for port in range(fabric.n_ports))
        assert drained == queued
        # Everything served: another dequeue on any port yields None.
        assert all(fabric.dequeue(port, now=1.0) is None
                   for port in range(fabric.n_ports))


def test_drain_respects_limit():
    with small_fabric(2) as fabric:
        fabric.process_batch(make_traffic(n=240), now=0.5)
        got = fabric.drain(0, now=1.0, limit=3)
        assert len(got) == 3


def test_poll_metrics_shape_and_steering():
    with small_fabric(2) as fabric:
        fabric.process_batch(make_traffic(n=240), now=0.5,
                             chunk_size=60)
        metrics = fabric.poll_metrics()
        assert metrics["generation"] == 0
        assert metrics["n_shards"] == 2
        assert metrics["processed"] == 240
        assert len(metrics["shards"]) == 2
        steering = metrics["steering"]
        assert steering["hashed_packets"] == 240
        assert sum(steering["per_shard_packets"]) == 240
        assert steering["imbalance"] >= 1.0
        assert steering["steering_seconds"] >= 0.0
        assert "tables" in metrics["telemetry"]
        assert metrics["energy_total_j"] > 0.0


def test_slice_extremes_takes_max_over_shards():
    with small_fabric(2) as fabric:
        fabric.process_batch(make_traffic(n=240), now=0.5)
        delay, pdp, backlog = fabric.slice_extremes()
        per_shard = [shard.processor.slice_extremes()
                     for shard in fabric.shards]
        assert delay == max(e[0] for e in per_shard)
        assert pdp == max(e[1] for e in per_shard)
        assert backlog == max(e[2] for e in per_shard)
        assert backlog > 0


def test_robustness_stats_prefixes_shard_names():
    with small_fabric(2) as fabric:
        stats = fabric.robustness_stats()
        assert stats["fallback_events"] == 0
        assert stats["retries"] == 0
        assert stats["degraded_tables"] == []


def test_merge_telemetry_recomputes_hit_rate():
    first, second = TelemetryCollector(), TelemetryCollector()
    first.record_lookup_batch("t", 10, 5, [("allow", 5)])
    first.set_gauge("port0.backlog", 2.0)
    first.record_event("drop", 1)
    second.record_lookup_batch("t", 30, 5, [("allow", 3), ("deny", 2)])
    second.set_gauge("port0.backlog", 3.0)
    second.record_event("drop", 2)
    merged = TelemetryCollector()
    merged.merge(first)
    merged.merge(second)
    snapshot = merged.snapshot()
    table = snapshot["tables"]["t"]
    assert table["lookups"] == 40
    assert table["hits"] == 10
    assert table["hit_rate"] == pytest.approx(0.25)
    assert table["verdicts"] == {"allow": 8, "deny": 2}
    assert snapshot["gauges"]["port0.backlog"] == 5.0
    assert snapshot["events"]["drop"] == 3
    # The inputs are folded, not aliased.
    assert first.table("t").lookups == 10
    assert first.table("t").verdicts == {"allow": 5}


def test_one_shard_fabric_reports_the_switch_observables():
    spec = default_switch_spec()
    switch = scenario_switch(spec, 3)
    fabric = build_fabric(spec, 3, 1)
    try:
        for cols in scenario("flash_crowd").stream(
                seed=3, n_packets=3000, chunk_size=256):
            now = float(cols.times_s[0])
            switch.process_batch(cols, now=now, chunk_size=len(cols))
            fabric.process_batch(cols, now=now, chunk_size=len(cols))
            assert switch.slice_extremes() == fabric.slice_extremes()
        assert switch.slice_extremes()[2] > 0
        ours, theirs = switch.robustness_stats(), fabric.robustness_stats()
        assert ours["fallback_events"] == theirs["fallback_events"]
        assert ours["retries"] == theirs["retries"]
        assert [f"shard0.{table}" for table in ours["degraded_tables"]] \
            == theirs["degraded_tables"]
    finally:
        fabric.close()


def test_process_columns_equals_packet_path():
    spec = default_switch_spec()
    entry = scenario("flash_crowd")
    chunks = list(entry.stream(seed=3, n_packets=1500, chunk_size=500))
    a = build_fabric(spec, 7, 2)
    b = build_fabric(spec, 7, 2)
    try:
        for cols in chunks:
            now = float(cols.times_s[0])
            native = a.process_batch(cols, now=now, chunk_size=250)
            codes, ports = native.codes, native.ports
            results = b.process_batch(cols.to_packets(), now=now,
                                      chunk_size=250)
            assert [int(c) for c in codes] == \
                [list(Verdict).index(r.verdict) for r in results]
            assert [int(p) for p in ports] == \
                [-1 if r.port is None else r.port for r in results]
        assert a.energy_total_j() == b.energy_total_j()
    finally:
        a.close()
        b.close()


def test_close_is_idempotent_and_context_manager_closes():
    fabric = small_fabric(2)
    with fabric:
        fabric.process_batch(make_traffic(n=30), now=0.5)
    fabric.close()  # second close: no-op


def test_fabric_runs_scenario_end_to_end():
    from repro.fabric import fabric_scenario_factory
    from repro.simnet.scenarios import run_scenario

    report = run_scenario(
        "flash_crowd", seed=1, n_packets=2000, chunk_size=512,
        admission_chunk=128, observe=True,
        processor_factory=fabric_scenario_factory(2))
    assert sum(report.verdict_counts.values()) == 2000
    assert report.energy_total_j > 0
    assert report.metrics is not None
    assert report.metrics["n_shards"] == 2
    assert report.metrics["steering"]["hashed_packets"] == 2000
    assert len(report.windows) == 20


def test_switch_path_of_fabrics_delivers():
    from repro.simnet.multihop import run_switch_path

    spec = default_switch_spec()
    entry = scenario("flash_crowd")
    hops = [build_fabric(spec, 11, 2), build_fabric(spec, 12, 1)]
    try:
        result = run_switch_path(
            hops, entry.stream(seed=5, n_packets=1200, chunk_size=600),
            link_delays_s=[0.002, 0.002],
            port_rate_bps=spec.port_rate_bps)
        assert result.hops[0].admitted == 1200
        queued_out_of_hop0 = result.hops[0].verdict_counts["queued"]
        assert result.hops[1].admitted == queued_out_of_hop0
        assert result.delivered == \
            result.hops[1].verdict_counts["queued"]
        assert result.mean_delay_s > 0.004  # two links of 2 ms
        assert result.energy_total_j == pytest.approx(
            sum(h.energy_total_j for h in result.hops))
    finally:
        for hop in hops:
            hop.close()
