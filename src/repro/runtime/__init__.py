"""The columnar staged runtime: Stage protocol and engine.

One execution engine for every dataplane entry point: stages are
columnar batch transforms, the cross-cutting concerns (span tracing,
energy attribution, degradation supervision) are done inline by the
engine's one chunk loop from what the runtime is assembled with, and
the scalar API is a batch of one over the same engine.

Layering contract (enforced by ``tools/check_layering.py``): this
package never imports ``repro.dataplane`` or ``repro.netfunc`` — the
concrete switch stages live with the dataplane and plug in here.
"""

from repro.runtime.engine import PipelineRuntime
from repro.runtime.stage import Stage, StageContext

__all__ = [
    "PipelineRuntime",
    "Stage",
    "StageContext",
]
