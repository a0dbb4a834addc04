"""Data-plane telemetry."""

import pytest

from repro.dataplane.telemetry import (
    TelemetryCollector,
    int_metadata,
    stamp_packet,
)
from repro.packet import Packet


class TestINTStamping:
    def test_trail_accumulates_in_order(self):
        packet = Packet()
        stamp_packet(packet, "ingress", 3, 0.001)
        stamp_packet(packet, "egress0", 12, 0.002)
        trail = int_metadata(packet)
        assert [record["component"] for record in trail] == \
            ["ingress", "egress0"]
        assert trail[1]["queue_depth"] == 12

    def test_unstamped_packet_empty_trail(self):
        assert int_metadata(Packet()) == []

    def test_trail_copy_not_aliased(self):
        packet = Packet()
        stamp_packet(packet, "a", 1, 0.0)
        trail = int_metadata(packet)
        trail.append({"component": "fake"})
        assert len(int_metadata(packet)) == 1

    def test_trail_records_not_aliased(self):
        # The copy must be per record, not just the outer list: a sink
        # annotating a returned record must not corrupt the packet.
        packet = Packet()
        stamp_packet(packet, "a", 1, 0.0)
        trail = int_metadata(packet)
        trail[0]["queue_depth"] = 999
        trail[0]["annotation"] = "sink-side"
        fresh = int_metadata(packet)
        assert fresh[0]["queue_depth"] == 1
        assert "annotation" not in fresh[0]


class TestTelemetryCollector:
    def test_table_counters(self):
        collector = TelemetryCollector()
        collector.record_lookup("acl", hit=True, verdict="permit")
        collector.record_lookup("acl", hit=True, verdict="deny")
        collector.record_lookup("acl", hit=False)
        stats = collector.table("acl")
        assert stats.lookups == 3
        assert stats.hits == 2
        assert stats.misses == 1
        assert stats.hit_rate == pytest.approx(2 / 3)
        assert stats.verdicts["permit"] == 1

    def test_unknown_table_rejected(self):
        with pytest.raises(KeyError):
            TelemetryCollector().table("ghost")

    def test_hit_rate_empty_table(self):
        from repro.dataplane.telemetry import TableStats
        assert TableStats().hit_rate == 0.0

    def test_events_and_gauges(self):
        collector = TelemetryCollector()
        collector.record_event("aqm_drop", 3)
        collector.record_event("aqm_drop")
        collector.set_gauge("delay_ewma_s", 0.021)
        assert collector.event_count("aqm_drop") == 4
        assert collector.event_count("never") == 0
        assert collector.gauge("delay_ewma_s") == pytest.approx(0.021)
        assert collector.gauge("missing", default=-1.0) == -1.0

    def test_negative_event_count_rejected(self):
        with pytest.raises(ValueError):
            TelemetryCollector().record_event("x", -1)

    def test_snapshot_serialisable(self):
        import json
        collector = TelemetryCollector()
        collector.record_lookup("lpm", hit=True, verdict="port0")
        collector.set_gauge("pdp", 0.3)
        collector.record_event("mark")
        text = json.dumps(collector.snapshot())
        assert "lpm" in text and "pdp" in text and "mark" in text

    def test_reset(self):
        collector = TelemetryCollector()
        collector.record_lookup("t", hit=True)
        collector.reset()
        assert collector.tables == {}

    def test_batch_pairs_sum_like_per_packet_lookups(self):
        batched, scalar = TelemetryCollector(), TelemetryCollector()
        batched.record_lookup_batch(
            "acl", 5, 3, [("permit", 2), ("deny", 1), ("permit", 2)])
        for hit, verdict in [(True, "permit"), (True, "deny"),
                             (True, "permit"), (False, "permit"),
                             (False, "permit")]:
            scalar.record_lookup("acl", hit=hit, verdict=verdict)
        assert batched.snapshot() == scalar.snapshot()
        with pytest.raises(ValueError):
            batched.record_lookup_batch("acl", 1, 2)

    def test_merge_sums_every_counter_and_gauge(self):
        shards = [TelemetryCollector() for _ in range(2)]
        for backlog, collector in enumerate(shards, start=1):
            collector.record_lookup("lpm", hit=True, verdict="port0")
            collector.record_event("aqm_drop", backlog)
            collector.set_gauge("port0.backlog", backlog)
        merged = TelemetryCollector()
        for collector in shards:
            merged.merge(collector)
        merged.merge(merged)  # self-merge is a no-op
        assert merged.table("lpm").lookups == 2
        assert merged.table("lpm").verdicts == {"port0": 2}
        assert merged.event_count("aqm_drop") == 3
        assert merged.gauge("port0.backlog") == 3.0
