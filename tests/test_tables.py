"""Digital match-action tables over the TCAM."""

import pytest

from repro.dataplane.tables import (
    DigitalMatchActionTable,
    FieldKeySpec,
)
from repro.packet import Packet
from repro.tcam.tcam import TernaryPattern

KEY = (FieldKeySpec("dst_ip", 32), FieldKeySpec("protocol", 8))


def make_packet(dst="10.0.0.1", protocol=6):
    return Packet(fields={"dst_ip": dst, "protocol": protocol})


def make_table(**kwargs):
    return DigitalMatchActionTable("acl", KEY, **kwargs)


class TestFieldKeySpec:
    def test_ip_string_encoding(self):
        spec = FieldKeySpec("dst_ip", 32)
        assert spec.encode("10.0.0.1") == (10 << 24) | 1

    def test_ipv6_string_rejected(self):
        # Regression: an IPv6 string small enough to fit 32 bits used
        # to encode as the IPv4 address with the same integer.
        with pytest.raises(ValueError):
            FieldKeySpec("dst_ip", 32).encode("::a00:1")

    def test_int_encoding_with_bounds(self):
        spec = FieldKeySpec("protocol", 8)
        assert spec.encode(17) == 17
        with pytest.raises(ValueError):
            spec.encode(256)

    def test_custom_encoder(self):
        spec = FieldKeySpec("flag", 1, encoder=lambda v: 1 if v else 0)
        assert spec.encode("anything") == 1

    def test_unencodable_type_rejected(self):
        with pytest.raises(TypeError):
            FieldKeySpec("x", 8).encode(3.14)


class TestLookups:
    def test_exact_match_runs_action(self):
        table = make_table()
        marks = []
        pattern = TernaryPattern.from_value(
            ((10 << 24) | 1) << 8 | 6, 40)
        table.add_entry(pattern, verdict="allow",
                        action=lambda p: marks.append(p.packet_id))
        result = table.lookup(make_packet())
        assert result.hit
        assert result.verdict == "allow"
        assert len(marks) == 1

    def test_wildcard_protocol(self):
        table = make_table()
        value = ((10 << 24) | 1) << 8
        mask = ((0xFFFFFFFF) << 8)
        table.add_entry(TernaryPattern.from_value(value, 40, mask=mask),
                        verdict="route")
        assert table.lookup(make_packet(protocol=17)).verdict == "route"

    def test_miss_returns_default(self):
        table = make_table(default_verdict="deny")
        result = table.lookup(make_packet())
        assert not result.hit
        assert result.verdict == "deny"
        assert result.entry_index is None

    def test_action_verdict_overrides_static(self):
        table = make_table()
        pattern = TernaryPattern.from_value(((10 << 24) | 1) << 8 | 6, 40)
        table.add_entry(pattern, verdict="static",
                        action=lambda p: "dynamic")
        assert table.lookup(make_packet()).verdict == "dynamic"

    def test_missing_field_raises(self):
        table = make_table()
        with pytest.raises(KeyError):
            table.lookup(Packet(fields={"dst_ip": "10.0.0.1"}))

    def test_energy_charged_to_ledger(self):
        table = make_table()
        table.add_entry("x" * 40)
        table.lookup(make_packet())
        assert table.ledger.total > 0.0
        assert table.lookups == 1

    def test_lookup_batch_equals_lookup_loop(self):
        def build():
            table = make_table(default_verdict="deny")
            table.add_entry(TernaryPattern.from_value(
                ((10 << 24) | 1) << 8 | 6, 40), verdict="static",
                action=lambda p: "dynamic")
            table.add_entry(TernaryPattern.from_value(
                10 << 32, 40, mask=0xFF << 32), verdict="net10")
            return table

        packets = [make_packet(), make_packet(protocol=17),
                   make_packet(dst="10.9.9.9"), make_packet(dst="11.0.0.1")]
        batch, scalar = build(), build()
        got = batch.lookup_batch(packets)
        want = [scalar.lookup(packet) for packet in packets]
        assert [(r.hit, r.verdict, r.entry_index) for r in got] == [
            (r.hit, r.verdict, r.entry_index) for r in want] == [
            (True, "dynamic", 0), (True, "net10", 1), (True, "net10", 1),
            (False, "deny", None)]
        assert batch.ledger.breakdown() == scalar.ledger.breakdown()
        assert batch.lookups == scalar.lookups == 4
        assert batch.lookup_batch([]) == []

    def test_len(self):
        table = make_table()
        table.add_entry("x" * 40)
        assert len(table) == 1


class TestValidation:
    def test_name_required(self):
        with pytest.raises(ValueError):
            DigitalMatchActionTable("", KEY)

    def test_key_spec_required(self):
        with pytest.raises(ValueError):
            DigitalMatchActionTable("t", ())

    def test_injected_tcam_width_checked(self):
        from repro.tcam.tcam import TCAM
        with pytest.raises(ValueError):
            DigitalMatchActionTable("t", KEY, tcam=TCAM(8))
