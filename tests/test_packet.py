"""The shared Packet type."""

import pytest

from repro.packet import FIVE_TUPLE_FIELDS, Packet


def test_unique_ids():
    a, b = Packet(), Packet()
    assert a.packet_id != b.packet_id


def test_sojourn_requires_both_timestamps():
    packet = Packet()
    assert packet.sojourn_time is None
    packet.enqueued_at = 1.0
    assert packet.sojourn_time is None
    packet.dequeued_at = 1.5
    assert packet.sojourn_time == pytest.approx(0.5)


def test_fields_copied_not_aliased():
    fields = {"src_ip": "10.0.0.1"}
    packet = Packet(fields=fields)
    fields["src_ip"] = "changed"
    assert packet.field("src_ip") == "10.0.0.1"


def test_field_default():
    assert Packet().field("missing", 42) == 42


def test_validation():
    with pytest.raises(ValueError):
        Packet(size_bytes=0)
    with pytest.raises(ValueError):
        Packet(priority=-1)


def test_five_tuple_names():
    assert FIVE_TUPLE_FIELDS == ("src_ip", "dst_ip", "src_port",
                                 "dst_port", "protocol")


def test_repr_contains_key_facts():
    text = repr(Packet(size_bytes=500, flow_id=3, priority=1))
    assert "500B" in text and "flow=3" in text
