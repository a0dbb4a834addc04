"""Robustness under device non-idealities (the reliability face of RQ2).

The paper's value proposition rests on analog memristor hardware that
keeps working — with *measured, bounded* degradation — when devices
drift, stick, or read noisily.  This package quantifies that claim:

* :mod:`repro.robustness.models` — parameterised, seedable, composable
  fault models (stuck-at-LRS/HRS, conductance drift, programming-pulse
  variance, converter quantisation, transient read noise);
* :mod:`repro.robustness.injector` — applies materialised faults to
  pipelines, arrays, and AQMs through the cell-level injection hooks;
* :mod:`repro.robustness.oracle` — the differential test oracle that
  compares faulty-analog vs ideal-scalar vs batch outputs and checks
  degradation against a declared envelope;
* :mod:`repro.robustness.degradation` — graceful degradation: a shadow
  digital oracle watches the analog AQM and falls back to a digital
  baseline, with reprogram-retry backoff;
* :mod:`repro.robustness.campaign` — the :class:`FaultCampaign` runner
  that sweeps fault models across the device / crossbar / pCAM-array /
  AQM layers and records deviation, PDP bias, and energy deltas.
"""

from repro.robustness.campaign import (
    CampaignConfig,
    CampaignRecord,
    CampaignResult,
    FaultCampaign,
    default_fault_models,
)
from repro.robustness.degradation import DegradingAQM, ShadowOracle
from repro.robustness.injector import FaultInjector, InjectionReport
from repro.robustness.models import (
    CellFault,
    CompositeFaultModel,
    ConductanceDrift,
    ConverterQuantization,
    FaultModel,
    ProgrammingVariance,
    StuckAtFault,
    TransientReadNoise,
)
from repro.robustness.oracle import (
    DegradationEnvelope,
    DeviationReport,
    DifferentialOracle,
    EnvelopeViolation,
)

__all__ = [
    "CampaignConfig",
    "CampaignRecord",
    "CampaignResult",
    "CellFault",
    "CompositeFaultModel",
    "ConductanceDrift",
    "ConverterQuantization",
    "DegradationEnvelope",
    "DegradingAQM",
    "DeviationReport",
    "DifferentialOracle",
    "EnvelopeViolation",
    "FaultCampaign",
    "FaultInjector",
    "FaultModel",
    "InjectionReport",
    "ProgrammingVariance",
    "ShadowOracle",
    "StuckAtFault",
    "TransientReadNoise",
    "default_fault_models",
]
