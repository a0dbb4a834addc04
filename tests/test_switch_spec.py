"""Declarative switch assembly via SwitchSpec + build_switch."""

from dataclasses import replace

import numpy as np
import pytest

from repro.control import CognitiveNetworkController
from repro.dataplane import SwitchSpec, Verdict, build_switch
from repro.netfunc.aqm.pcam_aqm import PCAMAQM
from repro.netfunc.firewall import Action, FirewallRule
from repro.packet import Packet
from repro.robustness.degradation import DegradingAQM


def packet(dst, size=500):
    return Packet(size_bytes=size,
                  fields={"src_ip": "1.2.3.4", "dst_ip": dst,
                          "src_port": 1000, "dst_port": 80,
                          "protocol": 6})


BASE = SwitchSpec(
    n_ports=2,
    routes=(("10.0.0.0/8", 0), ("192.168.0.0/16", 1)),
    firewall_rules=(FirewallRule(action=Action.DENY,
                                 dst_prefix="203.0.113.0/24"),))


class TestSpecValidation:
    def test_route_port_out_of_range(self):
        with pytest.raises(ValueError, match="targets port 5"):
            SwitchSpec(n_ports=2, routes=(("10.0.0.0/8", 5),))

    def test_needs_a_port(self):
        with pytest.raises(ValueError, match="at least one port"):
            SwitchSpec(n_ports=0)

    def test_with_routes_appends_immutably(self):
        extended = BASE.with_routes(("172.16.0.0/12", 1))
        assert len(extended.routes) == 3
        assert len(BASE.routes) == 2
        assert extended.n_ports == BASE.n_ports

    def test_supervision_requires_degradation(self):
        with pytest.raises(ValueError, match="degradation-capable"):
            build_switch(SwitchSpec(n_ports=1, supervised=True))

    def test_supervision_refuses_a_factory_without_degradable_aqms(self):
        controller = CognitiveNetworkController()
        with pytest.raises(ValueError,
                           match="supervised.*aqm_factory.*nothing to "
                                 "supervise"):
            build_switch(SwitchSpec(n_ports=2, supervised=True),
                         aqm_factory=PCAMAQM, controller=controller)
        assert controller._supervised == {}


class TestBuildSwitch:
    def test_tables_installed_from_spec(self):
        processor = build_switch(BASE)
        routed = processor.process(packet("10.1.2.3"), now=0.0)
        denied = processor.process(packet("203.0.113.9"), now=0.0)
        lost = processor.process(packet("8.8.8.8"), now=0.0)
        assert routed.verdict is Verdict.QUEUED and routed.port == 0
        assert denied.verdict is Verdict.DROPPED_ACL
        assert lost.verdict is Verdict.DROPPED_NO_ROUTE

    def test_scalar_knobs_forwarded(self):
        spec = SwitchSpec(n_ports=3, queue_capacity=17,
                          flow_cache_size=0)
        processor = build_switch(spec)
        assert processor.traffic_manager.n_ports == 3
        assert processor.flow_cache is None

    def test_graceful_degradation_wraps_every_port(self):
        processor = build_switch(
            replace(BASE, graceful_degradation=True))
        for port in range(2):
            assert isinstance(processor.traffic_manager.aqm(port),
                              DegradingAQM)

    def test_supervised_registers_and_ticks(self):
        spec = replace(BASE, graceful_degradation=True,
                       supervised=True)
        controller = CognitiveNetworkController()
        processor = build_switch(spec, controller=controller)
        assert processor.controller is controller
        assert list(controller._supervised) == ["port0.pcam_aqm",
                                                "port1.pcam_aqm"]
        # The runtime's supervise hook drives controller.tick once per
        # chunk; ticking must not change traffic outcomes.
        result = processor.process(packet("192.168.7.7"), now=0.5)
        assert result.verdict is Verdict.QUEUED and result.port == 1

    def test_aqm_factory_override(self):
        built = []

        def factory():
            aqm = PCAMAQM(rng=np.random.default_rng(0))
            built.append(aqm)
            return aqm

        processor = build_switch(SwitchSpec(n_ports=2),
                                 aqm_factory=factory)
        assert len(built) == 2
        assert processor.traffic_manager.aqm(0) is built[0]

    def test_shared_controller_refused_before_assembly(self):
        spec = replace(BASE, graceful_degradation=True,
                       supervised=True)
        controller = CognitiveNetworkController()
        build_switch(spec, controller=controller)
        supervised = dict(controller._supervised)
        with pytest.raises(ValueError, match="controller is shared"):
            build_switch(spec, controller=controller)
        assert controller._supervised == supervised
