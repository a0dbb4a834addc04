"""Columnar fast path == scalar reference, chunk size aside.

Pins the tentpole equivalences: ``process_batch`` must agree with the
per-packet ``process`` loop verdict for verdict (including drop
reasons) and telemetry total for telemetry total, for every chunk
size, with the flow cache on or off, and with analog faults injected.
"""

import numpy as np
import pytest

from repro.dataplane.pipeline import AnalogPacketProcessor, Verdict
from repro.netfunc.aqm.pcam_aqm import PCAMAQM
from repro.netfunc.firewall import Action, FirewallRule
from repro.packet import Packet
from repro.robustness import FaultInjector, StuckAtFault

#: Destinations per routed prefix, the denied prefix, and a prefix
#: with no route; plus packets that carry no destination at all.
DST_POOL = [
    "10.1.2.3", "10.1.2.4", "10.200.0.1",          # -> port 0
    "192.168.7.7", "192.168.9.1",                  # -> port 1
    "172.16.0.5", "172.16.3.3",                    # -> port 2
    "203.0.113.9", "203.0.113.10",                 # denied by ACL
    "198.51.100.1", "198.51.100.2",                # no route
    None, None,                                    # missing dst field
]
SRC_POOL = ["1.2.3.4", "5.6.7.8", "9.10.11.12"]


def build_processor(*, flow_cache_size=4096, aqm_seed=None,
                    fault_seed=None):
    factory = None
    if aqm_seed is not None:
        factory = lambda: PCAMAQM(rng=np.random.default_rng(aqm_seed))
    processor = AnalogPacketProcessor(n_ports=3, aqm_factory=factory,
                                      flow_cache_size=flow_cache_size)
    processor.add_firewall_rule(FirewallRule(
        action=Action.DENY, dst_prefix="203.0.113.0/24"))
    processor.add_route("10.0.0.0/8", 0)
    processor.add_route("192.168.0.0/16", 1)
    processor.add_route("172.16.0.0/12", 2)
    if fault_seed is not None:
        injector = FaultInjector(StuckAtFault(state="hrs"),
                                 cell_fraction=1.0,
                                 rng=np.random.default_rng(fault_seed))
        for port in range(processor.traffic_manager.n_ports):
            injector.inject_aqm(processor.traffic_manager.aqm(port))
    return processor


def make_traffic(n=240, seed=17):
    rng = np.random.default_rng(seed)
    packets = []
    for _ in range(n):
        fields = {"src_ip": SRC_POOL[int(rng.integers(len(SRC_POOL)))],
                  "src_port": int(rng.integers(1024, 1028)),
                  "dst_port": int(rng.integers(80, 83)),
                  "protocol": int(rng.choice([6, 17]))}
        dst = DST_POOL[int(rng.integers(len(DST_POOL)))]
        if dst is not None:
            fields["dst_ip"] = dst
        packets.append(Packet(size_bytes=int(rng.integers(64, 1500)),
                              priority=int(rng.random() < 0.3),
                              fields=fields))
    return packets


def observed(processor, results):
    """Everything the equivalence contract pins, as one comparable."""
    snapshot = processor.telemetry.snapshot()
    return {
        "verdicts": [r.verdict for r in results],
        "ports": [r.port for r in results],
        "verdict_counts": dict(processor.verdict_counts),
        "tables": snapshot["tables"],
        "events": snapshot["events"],
        "gauges": snapshot["gauges"],
    }


def run_scalar(processor, packets, now=0.5):
    return [processor.process(packet, now) for packet in packets]


class TestChunkSizeInvariance:
    @pytest.mark.parametrize("chunk_size", [1, 7, 64, 240])
    def test_matches_per_packet_process(self, chunk_size):
        packets = make_traffic()
        scalar = build_processor(aqm_seed=5)
        batched = build_processor(aqm_seed=5)
        reference = observed(scalar, run_scalar(scalar, packets))
        batch = observed(batched, batched.process_batch(
            packets, now=0.5, chunk_size=chunk_size))
        assert batch == reference

    def test_every_verdict_kind_exercised(self):
        # The traffic mix must actually cover all digital drop paths,
        # or the equivalence above proves less than it claims.
        processor = build_processor(aqm_seed=5)
        processor.process_batch(make_traffic(), now=0.5)
        counts = processor.verdict_counts
        assert counts[Verdict.QUEUED] > 0
        assert counts[Verdict.DROPPED_ACL] > 0
        assert counts[Verdict.DROPPED_NO_ROUTE] > 0

    def test_flow_cache_transparent(self):
        packets = make_traffic()
        cached = build_processor(aqm_seed=5)
        uncached = build_processor(aqm_seed=5, flow_cache_size=0)
        with_cache = observed(cached, cached.process_batch(
            packets, now=0.5, chunk_size=64))
        without = observed(uncached, uncached.process_batch(
            packets, now=0.5, chunk_size=64))
        assert with_cache == without
        # ... while actually short-circuiting TCAM work.
        assert uncached.flow_cache is None
        assert cached.flow_cache.hits > 0
        assert cached.firewall.tcam.searches \
            < uncached.firewall.tcam.searches
        assert cached.lookup.tcam.searches \
            < uncached.lookup.tcam.searches

    def test_telemetry_totals_track_traffic_not_chunking(self):
        packets = make_traffic()
        processor = build_processor(aqm_seed=5)
        processor.process_batch(packets, now=0.5, chunk_size=32)
        firewall = processor.telemetry.table("firewall")
        assert firewall.lookups == len(packets)
        routed = processor.telemetry.table("ip_lookup")
        denied = processor.verdict_counts[Verdict.DROPPED_ACL]
        assert routed.lookups == len(packets) - denied


class TestFaultInjectedEquivalence:
    """Analog fault injection must not desynchronise the fast path."""

    @pytest.mark.parametrize("chunk_size", [1, 16, 240])
    def test_matches_per_packet_process_under_faults(self, chunk_size):
        packets = make_traffic(seed=23)
        scalar = build_processor(aqm_seed=7, fault_seed=99)
        batched = build_processor(aqm_seed=7, fault_seed=99)
        reference = observed(scalar, run_scalar(scalar, packets))
        batch = observed(batched, batched.process_batch(
            packets, now=0.5, chunk_size=chunk_size))
        assert batch == reference

    def test_faults_were_actually_injected(self):
        clean = build_processor(aqm_seed=7)
        faulted = build_processor(aqm_seed=7, fault_seed=99)
        stage = faulted.traffic_manager.aqm(0).pipeline.stage_names[0]
        clean_cell = clean.traffic_manager.aqm(0).pipeline.stage(stage)
        fault_cell = faulted.traffic_manager.aqm(0).pipeline.stage(
            stage)
        value = float(clean_cell.params.m2)
        assert fault_cell.response(value) != pytest.approx(
            clean_cell.response(value))


class TestScalarDelegation:
    def test_process_is_batch_of_one(self):
        # One packet through process() and through process_batch()
        # must produce identical outcomes AND identical table work.
        a = build_processor(aqm_seed=3)
        b = build_processor(aqm_seed=3)
        packet = make_traffic(n=1, seed=4)[0]
        scalar = a.process(packet, now=0.1)
        [batch] = b.process_batch([packet], now=0.1, chunk_size=1)
        assert scalar.verdict == batch.verdict
        assert scalar.port == batch.port
        assert a.firewall.tcam.searches == b.firewall.tcam.searches
        assert a.telemetry.snapshot() == b.telemetry.snapshot()


class TestMalformedHeaders:
    """The scalar and batched paths refuse the same bad headers."""

    @pytest.mark.parametrize("fields", [
        {"dst_port": 65616},                   # 80 + 2**16
        {"protocol": 262},                     # spills into dst_port
        {"dst_ip": "::a00:1"},                 # IPv6, not 10.0.0.1
        {"src_ip": "::a00:1"},
    ])
    def test_process_and_scalar_check_both_raise(self, fields):
        header = {"src_ip": "1.2.3.4", "dst_ip": "10.1.2.3",
                  "src_port": 1024, "dst_port": 80, "protocol": 6}
        header.update(fields)
        packet = Packet(fields=header)
        processor = build_processor()
        with pytest.raises(ValueError):
            processor.firewall.check(packet)
        with pytest.raises(ValueError):
            processor.process(packet)
        for rows in (3, 20):        # packed in Python, then in NumPy
            with pytest.raises(ValueError):
                processor.process_batch([packet] * rows)
        assert processor.traffic_manager.backlog(0) == 0

    def test_ipv6_text_is_not_an_ipv4_integer(self):
        from repro.dataplane.fastpath import ip_to_u32
        assert ip_to_u32("10.0.0.1") == ip_to_u32(0x0A000001)
        with pytest.raises(ValueError):
            ip_to_u32("::a00:1")
        with pytest.raises(ValueError):
            ip_to_u32(1 << 32)
