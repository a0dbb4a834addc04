"""The unified control plane (Figure 5, top).

Everything that *closes the loop* over the analog dataplane lives
here: the shared sense -> decide -> actuate :class:`ControlLoop`
abstraction (:mod:`repro.control.loop`), the intent-driven retarget
loop ported from ``repro.dataplane.control_loop``
(:mod:`repro.control.intent`), the cognitive network controller
ported from ``repro.dataplane.controller``
(:mod:`repro.control.cognitive`), the SPSA learning policy and its
envelope gate (:mod:`repro.control.learning`), and the learned-vs-static
scenario gate that wires them onto a switch
(:mod:`repro.control.gate`).

Layering: ``repro.control`` sits *above* the dataplane, fabric,
robustness and observability layers — it may import any of them
(lazily where needed), and nothing below may import it back except
the switch pipeline's default-controller convenience.
"""

from repro.control.loop import (
    Action,
    Actuator,
    AQMActuator,
    ControlLoop,
    CounterSensor,
    Policy,
    Sensor,
    SwitchSensor,
)
from repro.control.intent import Intent, IntentController, IntentPolicy
from repro.control.cognitive import (
    CognitiveNetworkController,
    RegisteredFunction,
)
from repro.control.learning import (
    DelayEnvelope,
    EnvelopeGate,
    ProgramBounds,
    SPSAPolicy,
)

__all__ = [
    "AQMActuator",
    "Action",
    "Actuator",
    "CognitiveNetworkController",
    "ControlLoop",
    "CounterSensor",
    "DelayEnvelope",
    "EnvelopeGate",
    "Intent",
    "IntentController",
    "IntentPolicy",
    "Policy",
    "ProgramBounds",
    "RegisteredFunction",
    "SPSAPolicy",
    "Sensor",
    "SwitchSensor",
]
