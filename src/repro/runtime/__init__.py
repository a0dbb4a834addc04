"""The columnar staged runtime: Stage protocol, middleware, engine.

One execution engine for every dataplane entry point: stages are
columnar batch transforms, cross-cutting concerns (tracing, energy
attribution, degradation supervision) are middleware registered once
at assembly time, and the scalar API is a batch of one over the same
engine.

Layering contract (enforced by ``tools/check_layering.py``): this
package never imports ``repro.dataplane`` or ``repro.netfunc`` — the
concrete switch stages live with the dataplane and plug in here.
"""

from repro.runtime.engine import PipelineRuntime
from repro.runtime.middleware import (
    BaseMiddleware,
    EnergyAttributionMiddleware,
    SupervisionMiddleware,
    TracingMiddleware,
)
from repro.runtime.stage import Stage, StageContext

__all__ = [
    "BaseMiddleware",
    "EnergyAttributionMiddleware",
    "PipelineRuntime",
    "Stage",
    "StageContext",
    "SupervisionMiddleware",
    "TracingMiddleware",
]
