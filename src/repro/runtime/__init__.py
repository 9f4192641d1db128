"""The columnar staged runtime: Stage protocol, middleware, engine.

One execution engine for every dataplane entry point: stages are
columnar batch transforms, cross-cutting concerns (tracing,
telemetry, energy attribution, fault installation, degradation
supervision) are middleware registered once at assembly time, and the
scalar API is a batch of one over the same engine.

Layering contract (enforced by ``tools/check_layering.py``): this
package never imports ``repro.dataplane`` or ``repro.netfunc`` — the
concrete switch stages live with the dataplane and plug in here.  The
single sanctioned exception is :mod:`repro.runtime.compile` (not
imported by this package, only by the dataplane's processor), which
must see the dataplane stage shapes to compile them; even it never
imports ``repro.netfunc``.
"""

from repro.runtime.engine import PipelineRuntime
from repro.runtime.middleware import (
    BaseMiddleware,
    EnergyAttributionMiddleware,
    FaultPlanMiddleware,
    SupervisionMiddleware,
    TelemetryMiddleware,
    TracingMiddleware,
)
from repro.runtime.stage import NullTally, Stage, StageContext

__all__ = [
    "BaseMiddleware",
    "EnergyAttributionMiddleware",
    "FaultPlanMiddleware",
    "NullTally",
    "PipelineRuntime",
    "Stage",
    "StageContext",
    "SupervisionMiddleware",
    "TelemetryMiddleware",
    "TracingMiddleware",
]
