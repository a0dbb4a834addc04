"""5-tuple ACL firewall."""

import pytest

from repro.netfunc.firewall import Action, Firewall, FirewallRule
from repro.packet import Packet


def make_packet(src="10.0.0.1", dst="192.168.1.1", sport=1234,
                dport=80, proto=6):
    return Packet(fields={"src_ip": src, "dst_ip": dst,
                          "src_port": sport, "dst_port": dport,
                          "protocol": proto})


def test_first_match_wins():
    firewall = Firewall(default_action=Action.DENY)
    firewall.add_rule(FirewallRule(Action.PERMIT,
                                   src_prefix="10.0.0.0/8"))
    firewall.add_rule(FirewallRule(Action.DENY,
                                   src_prefix="10.0.0.0/16"))
    # Both rules match; the earlier (PERMIT) wins.
    assert firewall.check(make_packet(src="10.0.1.1")) is Action.PERMIT


def test_default_action_on_miss():
    deny_default = Firewall(default_action=Action.DENY)
    assert deny_default.check(make_packet()) is Action.DENY
    permit_default = Firewall(default_action=Action.PERMIT)
    assert permit_default.check(make_packet()) is Action.PERMIT


def test_port_specific_rule():
    firewall = Firewall(default_action=Action.DENY)
    firewall.add_rule(FirewallRule(Action.PERMIT, dst_port=443))
    assert firewall.permits(make_packet(dport=443))
    assert not firewall.permits(make_packet(dport=80))


def test_protocol_specific_rule():
    firewall = Firewall(default_action=Action.DENY)
    firewall.add_rule(FirewallRule(Action.PERMIT, protocol=17))
    assert firewall.permits(make_packet(proto=17))
    assert not firewall.permits(make_packet(proto=6))


def test_full_five_tuple_rule():
    firewall = Firewall(default_action=Action.DENY)
    firewall.add_rule(FirewallRule(
        Action.PERMIT, src_prefix="10.0.0.0/24",
        dst_prefix="192.168.1.0/24", src_port=1234, dst_port=80,
        protocol=6))
    assert firewall.permits(make_packet())
    assert not firewall.permits(make_packet(sport=9999))
    assert not firewall.permits(make_packet(dst="192.168.2.1"))


def test_block_subnet_permit_rest():
    firewall = Firewall(default_action=Action.PERMIT)
    firewall.add_rule(FirewallRule(Action.DENY,
                                   src_prefix="172.16.0.0/12"))
    assert not firewall.permits(make_packet(src="172.20.1.1"))
    assert firewall.permits(make_packet(src="10.0.0.1"))


def test_missing_fields_default_to_zero():
    firewall = Firewall(default_action=Action.DENY)
    firewall.add_rule(FirewallRule(Action.PERMIT, protocol=0))
    assert firewall.permits(Packet(fields={}))


def test_rule_count():
    firewall = Firewall()
    firewall.add_rule(FirewallRule(Action.PERMIT))
    assert len(firewall) == 1


def test_energy_charged():
    firewall = Firewall()
    firewall.add_rule(FirewallRule(Action.PERMIT))
    firewall.check(make_packet())
    assert firewall.ledger.total > 0.0


def test_bad_port_rejected():
    firewall = Firewall()
    with pytest.raises(ValueError):
        firewall.add_rule(FirewallRule(Action.PERMIT, src_port=70000))


@pytest.mark.parametrize("field, value", [("dport", 65616),
                                          ("sport", 1 << 16),
                                          ("proto", 262)])
def test_scalar_check_rejects_fields_wider_than_their_slot(field, value):
    # Regression: the scalar key shifted fields together unchecked, so
    # dst_port 65616 (= 80 + 2**16) read as port 80 and protocol 262
    # spilled into dst_port; the batched path always raised.
    firewall = Firewall(default_action=Action.PERMIT)
    firewall.add_rule(FirewallRule(Action.DENY, dst_port=80))
    with pytest.raises(ValueError, match="does not fit"):
        firewall.check(make_packet(**{field: value}))


@pytest.mark.parametrize("field", ["src_ip", "dst_ip"])
def test_ipv6_address_rejected(field):
    # Regression: "::a00:1" decoded to the integer of 10.0.0.1.
    firewall = Firewall(default_action=Action.PERMIT)
    fields = {"src_ip": "10.0.0.1", "dst_ip": "10.0.0.2"}
    fields[field] = "::a00:1"
    with pytest.raises(ValueError):
        firewall.check(Packet(fields=fields))
