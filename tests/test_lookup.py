"""Longest-prefix-match IP lookup."""

import pytest

from repro.netfunc.lookup import IPLookup, Route
from repro.tcam.mtcam import MemristorTCAM


def make_table() -> IPLookup:
    table = IPLookup()
    table.add_route("0.0.0.0/0", "default_gw")
    table.add_route("10.0.0.0/8", "core")
    table.add_route("10.1.0.0/16", "edge")
    table.add_route("10.1.2.0/24", "rack")
    return table


def test_longest_prefix_wins():
    table = make_table()
    assert table.lookup("10.1.2.3") == "rack"
    assert table.lookup("10.1.9.9") == "edge"
    assert table.lookup("10.200.0.1") == "core"
    assert table.lookup("8.8.8.8") == "default_gw"


def test_insertion_order_irrelevant():
    table = IPLookup()
    table.add_route("10.1.2.0/24", "rack")
    table.add_route("10.0.0.0/8", "core")
    assert table.lookup("10.1.2.3") == "rack"


def test_miss_without_default_route():
    table = IPLookup()
    table.add_route("10.0.0.0/8", "core")
    assert table.lookup("192.168.1.1") is None


def test_host_route():
    table = make_table()
    table.add_route("10.1.2.3/32", "host")
    assert table.lookup("10.1.2.3") == "host"
    assert table.lookup("10.1.2.4") == "rack"


def test_route_count_and_records():
    table = make_table()
    assert len(table) == 4
    assert Route("10.0.0.0/8", "core") in table.routes


def test_ipv6_rejected():
    with pytest.raises(ValueError):
        IPLookup().add_route("2001:db8::/32", "v6")


def test_bad_prefix_rejected():
    with pytest.raises(ValueError):
        IPLookup().add_route("not-a-prefix", "x")


def test_lookup_charges_energy():
    table = make_table()
    table.lookup("10.1.2.3")
    assert table.ledger.total > 0.0


def test_memristor_backed_lookup_agrees():
    transistor = make_table()
    memristor = IPLookup(tcam=MemristorTCAM(IPLookup.WIDTH))
    for route in transistor.routes:
        memristor.add_route(route.prefix, route.next_hop)
    for address in ("10.1.2.3", "10.1.9.9", "10.200.0.1", "8.8.8.8"):
        assert memristor.lookup(address) == transistor.lookup(address)


def test_ipv6_address_lookup_rejected():
    # Regression: "::a00:1" used to be looked up as 10.0.0.1.
    with pytest.raises(ValueError):
        make_table().lookup("::a00:1")
