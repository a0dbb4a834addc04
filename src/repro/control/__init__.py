"""The control plane (Figure 5, top).

Everything that *closes the loop* over the analog dataplane lives
here: the cognitive network controller that places functions and
supervises degradable tables (:mod:`repro.control.cognitive`), the
paced sense -> decide -> actuate :class:`ControlLoop` its tick drives
(:mod:`repro.control.loop`), the SPSA learning policy and its
envelope gate (:mod:`repro.control.learning`), and the
learned-vs-static scenario gate that wires them onto a switch
(:mod:`repro.control.gate`).

Layering: ``repro.control`` sits *above* the dataplane, fabric,
robustness and observability layers — it may import any of them
(lazily where needed), and nothing below may import it back except
the switch pipeline's default-controller convenience.
"""

from repro.control.loop import (
    Action,
    AQMActuator,
    ControlLoop,
    SwitchSensor,
)
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
    "CognitiveNetworkController",
    "ControlLoop",
    "DelayEnvelope",
    "EnvelopeGate",
    "ProgramBounds",
    "RegisteredFunction",
    "SPSAPolicy",
    "SwitchSensor",
]
