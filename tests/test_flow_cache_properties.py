"""``classify_chunk`` against a per-row probe-then-put reference.

The chunked classifier probes every row of a chunk before it installs
anything, then installs each new flow once, in first-appearance
order.  The reference below spells that out row by row with a plain
``OrderedDict`` LRU and the scalar ``Firewall.check`` /
``IPLookup.lookup``: per-row outcomes, the hit/miss/invalidation
counters and the final LRU order must all agree, for chunks with
duplicate flows, caches smaller than a chunk's unique flows, and
table updates between chunks.
"""

import ipaddress
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dataplane.fastpath import FlowCache, PacketBatch, classify_chunk
from repro.netfunc.firewall import Action, Firewall, FirewallRule
from repro.netfunc.lookup import IPLookup
from repro.packet import Packet

#: A small flow pool, so chunks repeat flows and caches overflow.
SRC_POOL = (0x01020304, 0x05060708, 0x0A000001)
DST_POOL = (0x0A010203, 0x0A0A0A0A, 0xC0A80707, 0xAC100005, 0xCB007109,
            0xC6336401)
PORT_POOL = (80, 443, 1024, 65535)
PROTO_POOL = (6, 17)

#: Table updates applied between chunks (each bumps a generation).
UPDATES = (
    ("rule", FirewallRule(Action.DENY, dst_prefix="203.0.113.0/24")),
    ("rule", FirewallRule(Action.DENY, src_port=443)),
    ("rule", FirewallRule(Action.PERMIT, protocol=17)),
    ("route", ("192.168.0.0/16", "hop1")),
    ("route", ("172.16.0.0/12", "hop2")),
    ("route", ("10.10.0.0/16", "hop3")),
)

flows = st.tuples(st.sampled_from(SRC_POOL),
                  st.one_of(st.none(), st.sampled_from(DST_POOL)),
                  st.sampled_from(PORT_POOL), st.sampled_from(PORT_POOL),
                  st.sampled_from(PROTO_POOL))
chunks = st.lists(st.lists(flows, min_size=1, max_size=24),
                  min_size=1, max_size=5)


def make_packet(flow) -> Packet:
    src, dst, sport, dport, proto = flow
    fields = {"src_ip": src, "src_port": sport, "dst_port": dport,
              "protocol": proto}
    if dst is not None:
        fields["dst_ip"] = dst
    return Packet(fields=fields)


def make_tables():
    firewall = Firewall(default_action=Action.PERMIT)
    firewall.add_rule(FirewallRule(Action.DENY, dst_prefix="10.10.0.0/16"))
    lookup = IPLookup()
    lookup.add_route("10.0.0.0/8", "hop0")
    return firewall, lookup


def apply_update(update, firewall, lookup) -> None:
    kind, payload = update
    if kind == "rule":
        firewall.add_rule(payload)
    else:
        lookup.add_route(*payload)


def scalar_outcome(packet, firewall, lookup) -> tuple:
    """The per-packet reference: ACL, then LPM for routed survivors."""
    action = firewall.check(packet)
    dst = packet.field("dst_ip")
    if action is Action.DENY or not dst:
        return action, None
    return action, lookup.lookup(str(ipaddress.IPv4Address(dst)))


class ReferenceCache:
    """The flow cache spelled out row by row over an ``OrderedDict``."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.entries: OrderedDict = OrderedDict()
        self.generation = None
        self.hits = self.misses = self.invalidations = 0

    def classify(self, keys, packets, firewall, lookup) -> list:
        generation = (firewall.generation, lookup.generation)
        if generation != self.generation:
            if self.entries:
                self.invalidations += 1
                self.entries.clear()
            self.generation = generation
        found = []
        for key in keys:                      # probe every row first
            value = self.entries.get(key)
            if value is None:
                self.misses += 1
            else:
                self.hits += 1
                self.entries.move_to_end(key)
            found.append(value)
        fresh: dict = {}
        for key, packet, value in zip(keys, packets, found):
            if value is None and key not in fresh:
                fresh[key] = scalar_outcome(packet, firewall, lookup)
        for key, value in fresh.items():      # then put each new flow
            self.entries[key] = value
            self.entries.move_to_end(key)
            while len(self.entries) > self.capacity:
                self.entries.popitem(last=False)
        return [value if value is not None else fresh[key]
                for key, value in zip(keys, found)]


def chunk_outcomes(batch, firewall, lookup, cache) -> list:
    [(row_entry, entries)] = classify_chunk(
        [(batch.flow_keys, cache, firewall.ledger)], firewall, lookup)
    return [entries[entry] for entry in row_entry.tolist()]


@settings(max_examples=60)
@given(chunks=chunks, capacity=st.integers(1, 12),
       updates=st.lists(st.one_of(st.none(), st.sampled_from(UPDATES)),
                        min_size=5, max_size=5))
def test_classify_chunk_matches_probe_then_put_reference(chunks, capacity,
                                                         updates):
    firewall, lookup = make_tables()
    cache = FlowCache(capacity)
    reference = ReferenceCache(capacity)
    for flows_, update in zip(chunks, updates):
        if update is not None:
            apply_update(update, firewall, lookup)
        packets = [make_packet(flow) for flow in flows_]
        batch = PacketBatch(packets)
        expected = reference.classify(batch.flow_keys, packets, firewall,
                                      lookup)
        assert chunk_outcomes(batch, firewall, lookup, cache) == expected
        assert chunk_outcomes(PacketBatch(packets), firewall, lookup,
                              None) == expected
        assert (cache.hits, cache.misses, cache.invalidations) == (
            reference.hits, reference.misses, reference.invalidations)
        assert list(cache._entries) == list(reference.entries)


def decoded_keys(batch) -> list:
    """A batch's 16-byte flow keys decoded back to ``(hi, lo)`` pairs."""
    words = np.frombuffer(b"".join(batch.flow_keys), np.uint64)
    return [tuple(pair) for pair in words.reshape(-1, 2).tolist()]


@settings(max_examples=40)
@given(flows_=st.lists(flows, min_size=1, max_size=40))
def test_flow_keys_pack_the_documented_layout_at_every_batch_size(flows_):
    # Every batch size takes the same path, and each key decodes to
    # hi = src<<32 | dst, lo = sport<<25 | dport<<9 | proto<<1 |
    # has_dst, row for row.
    packets = [make_packet(flow) for flow in flows_]
    expected = [((src << 32) | (dst or 0),
                 (sport << 25) | (dport << 9) | (proto << 1)
                 | (dst is not None))
                for src, dst, sport, dport, proto in flows_]
    batch = PacketBatch(packets)
    assert all(type(key) is bytes and len(key) == 16
               for key in batch.flow_keys)
    assert decoded_keys(batch) == expected
    for size in (1, 15, 16, 17):
        assert decoded_keys(PacketBatch(packets[:size])) == expected[:size]


@pytest.mark.parametrize("rows", [1, 256])
@pytest.mark.parametrize("field, value, width", [
    ("src_port", 1 << 16, 16), ("protocol", 300, 8)])
def test_flow_keys_reject_a_too_wide_field_at_every_batch_size(
        rows, field, value, width):
    packets = [make_packet((SRC_POOL[0], DST_POOL[0], 80, 443, 6))
               for _ in range(rows)]
    packets[-1].fields[field] = value
    with pytest.raises(ValueError,
                       match=f"^value {value} does not fit in {width} bits$"):
        PacketBatch(packets).flow_keys
