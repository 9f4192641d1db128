"""The unified control plane (Figure 5, top).

Everything that *closes the loop* over the analog dataplane lives
here: the shared sense -> decide -> actuate :class:`ControlLoop`
abstraction (:mod:`repro.control.loop`), the intent-driven retarget
loop ported from ``repro.dataplane.control_loop``
(:mod:`repro.control.intent`), the cognitive network controller
ported from ``repro.dataplane.controller``
(:mod:`repro.control.cognitive`), the gradient-free learning
policies (:mod:`repro.control.learning`), and the fleet-scale
learned controller that shares a winning programming through one
two-phase fabric commit (:mod:`repro.control.fleet`).

Layering: ``repro.control`` sits *above* the dataplane, fabric,
robustness and observability layers — it may import any of them
(lazily where needed), and nothing below may import it back except
the dataplane facade's re-export and the pipeline's default
controller.
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
    CEMPolicy,
    DelayEnvelope,
    EnvelopeGate,
    ProgramBounds,
    SPSAPolicy,
)
from repro.control.fleet import (
    FleetActuator,
    FleetLearningController,
    FleetSensor,
)

__all__ = [
    "AQMActuator",
    "Action",
    "Actuator",
    "CEMPolicy",
    "CognitiveNetworkController",
    "ControlLoop",
    "CounterSensor",
    "DelayEnvelope",
    "EnvelopeGate",
    "FleetActuator",
    "FleetLearningController",
    "FleetSensor",
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
