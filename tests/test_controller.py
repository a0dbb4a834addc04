"""The cognitive network controller."""

import numpy as np
import pytest

from repro.core.compiler import (
    CognitiveCompiler,
    Domain,
    FunctionKind,
    NetworkFunctionSpec,
    PrecisionClass,
)
from repro.control import (
    Action,
    AQMActuator,
    CognitiveNetworkController,
    ControlLoop,
)
from repro.netfunc.aqm.pcam_aqm import PCAMAQM


def spec(name, precision=PrecisionClass.LOW,
         kind=FunctionKind.COGNITIVE):
    return NetworkFunctionSpec(name=name, precision=precision, kind=kind)


def test_register_and_compile_splits_domains():
    controller = CognitiveNetworkController()
    controller.register(spec("aqm"))
    controller.register(spec("ip_lookup", PrecisionClass.HIGH,
                             FunctionKind.DETERMINISTIC))
    placement = controller.compile()
    assert placement.domain_of("aqm") is Domain.ANALOG_PCAM
    assert placement.domain_of("ip_lookup") is Domain.DIGITAL_TCAM


def test_install_callback_receives_domain():
    controller = CognitiveNetworkController()
    installed = {}
    controller.register(spec("aqm"),
                        install=lambda d: installed.update(aqm=d))
    controller.compile()
    assert installed["aqm"] is Domain.ANALOG_PCAM


def test_duplicate_registration_rejected():
    controller = CognitiveNetworkController()
    controller.register(spec("aqm"))
    with pytest.raises(ValueError):
        controller.register(spec("aqm"))


def test_compile_without_functions_rejected():
    with pytest.raises(ValueError):
        CognitiveNetworkController().compile()


def test_runtime_reprogramming_path():
    """tick paces an attached loop whose actions reach update_pCAM."""
    controller = CognitiveNetworkController()
    aqm = PCAMAQM(rng=np.random.default_rng(0), adaptation=False)
    programmed = aqm.pipeline.stage("sojourn_time").params

    class Idle:
        def sense(self, now):
            return {}

    class Retarget:
        def decide(self, now, observation):
            return (Action("retarget", (0.040, 0.005)),)

    controller.attach_loop(ControlLoop(Idle(), Retarget(),
                                       AQMActuator(aqm),
                                       min_interval_s=1.0))
    controller.tick(0.0)
    controller.tick(0.5)  # paced: no second decision yet
    assert controller.reprogram_events == 1
    assert (aqm.target_delay_s, aqm.max_deviation_s) == (0.040, 0.005)
    assert aqm.pipeline.stage("sojourn_time").params.m1 != programmed.m1


def test_report_lists_every_function():
    controller = CognitiveNetworkController()
    controller.register(spec("aqm"))
    controller.register(spec("firewall", PrecisionClass.HIGH,
                             FunctionKind.DETERMINISTIC))
    controller.compile()
    report = "\n".join(controller.report())
    assert "aqm" in report and "firewall" in report
    assert "analog_pcam" in report and "digital_tcam" in report


def test_report_before_compile():
    assert CognitiveNetworkController().report() == ["<not compiled>"]
