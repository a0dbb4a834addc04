"""The fault-injection campaign runner.

A :class:`FaultCampaign` sweeps parameterised fault models across the
stack the paper's Figure 6 pipeline rests on:

* **device/crossbar layer** — stuck-at populations sampled as
  :class:`~repro.device.faults.CrossbarFaultPlan` pins, measured as
  relative analog matvec error;
* **pCAM array layer** — the same model injected into a stored-word
  array, measured as match-probability error against an ideal clone;
* **AQM pipeline layer** — the model injected into a Figure-6
  :class:`~repro.netfunc.aqm.pcam_aqm.PCAMAQM`, measured by the
  :class:`~repro.robustness.oracle.DifferentialOracle` (probability
  error, PDP bias) and exercised under synthetic congestion through
  the graceful-degradation wrapper, with energy recorded in the
  existing :class:`~repro.energy.ledger.EnergyLedger` and fallback
  events in the :class:`~repro.dataplane.telemetry.TelemetryCollector`.

Everything derives from one :class:`numpy.random.SeedSequence`, so a
campaign is a pure function of its config: same seed, same records.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.pcam_array import PCAMArray
from repro.core.pcam_cell import PCAMParams
from repro.crossbar.array import Crossbar
from repro.crossbar.losses import LineLossModel
from repro.dataplane.telemetry import TelemetryCollector
from repro.dataplane.traffic_manager import CognitiveTrafficManager
from repro.device.faults import CrossbarFaultPlan
from repro.device.variability import VariabilityModel
from repro.energy.ledger import EnergyLedger
from repro.netfunc.aqm.pcam_aqm import (
    DEFAULT_MAX_DEVIATION_S,
    DEFAULT_TARGET_DELAY_S,
    PCAMAQM,
)
from repro.packet import Packet
from repro.robustness.degradation import DegradingAQM
from repro.robustness.injector import FaultInjector
from repro.robustness.models import (
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
)

__all__ = ["CampaignConfig", "CampaignRecord", "CampaignResult",
           "FaultCampaign", "default_fault_models"]


def default_fault_models() -> tuple[FaultModel, ...]:
    """The standard five-model sweep (one per paper non-ideality)."""
    return (
        StuckAtFault(state="lrs"),
        StuckAtFault(state="hrs"),
        ConductanceDrift(scale=0.25),
        ProgrammingVariance(sigma=0.08),
        ConverterQuantization(dac_bits=6, adc_bits=6),
        TransientReadNoise(sigma=0.03),
    )


@dataclass(frozen=True)
class CampaignConfig:
    """Everything a campaign run depends on (seed included)."""

    fault_models: tuple[FaultModel, ...] = field(
        default_factory=default_fault_models)
    seed: int = 0
    #: Probes per fault model for the differential oracle.
    n_probes: int = 128
    #: Probability each pipeline cell receives the fault.
    cell_fraction: float = 1.0
    envelope: DegradationEnvelope = field(
        default_factory=DegradationEnvelope)
    # Figure-6 AQM build knobs.
    target_delay_s: float = DEFAULT_TARGET_DELAY_S
    max_deviation_s: float = DEFAULT_MAX_DEVIATION_S
    order: int = 3
    use_buffer: bool = True
    # Graceful-degradation knobs for the traffic phase.
    pdp_envelope: float = 0.10
    check_interval: int = 4
    trip_after: int = 2
    # Synthetic congestion workload.
    include_traffic: bool = True
    n_steps: int = 48
    chunk_size: int = 16
    step_s: float = 0.005
    port_rate_bps: float = 1e7
    queue_capacity: int = 512

    def __post_init__(self) -> None:
        if not self.fault_models:
            raise ValueError("campaign needs at least one fault model")
        if self.n_probes < 1:
            raise ValueError(f"need probes: {self.n_probes!r}")
        if not 0.0 <= self.cell_fraction <= 1.0:
            raise ValueError(
                f"cell fraction must be in [0, 1]: {self.cell_fraction!r}")


@dataclass(frozen=True)
class CampaignRecord:
    """Measured degradation of one fault model across the layers."""

    model: str
    n_injected: int
    #: Differential-oracle reduction at the AQM pipeline layer.
    deviation: DeviationReport
    within_envelope: bool
    #: Match-probability error at the pCAM array layer.
    array_mean_abs_error: float
    #: Relative matvec error at the crossbar layer (stuck models only).
    crossbar_relative_error: float | None
    # Traffic-phase outcome (zeros when traffic is disabled).
    fallback_engaged: bool
    retries: int
    recoveries: int
    aqm_drops: int
    #: Total energy charged during the model's traffic run [J].
    energy_j: float
    #: Energy relative to the clean baseline run [J].
    energy_delta_j: float
    events: dict[str, int]


@dataclass(frozen=True)
class CampaignResult:
    """All records of one campaign plus the clean baseline."""

    config: CampaignConfig
    baseline_energy_j: float
    records: tuple[CampaignRecord, ...]

    def record(self, model: str) -> CampaignRecord:
        """One model's record by name."""
        for item in self.records:
            if item.model == model:
                return item
        raise KeyError(f"no record for model {model!r}; have "
                       f"{[r.model for r in self.records]}")

    def summary_lines(self) -> list[str]:
        """Human-readable per-model summary."""
        lines = [f"fault campaign: seed={self.config.seed}, "
                 f"{len(self.records)} models, "
                 f"{self.config.n_probes} probes, baseline energy "
                 f"{self.baseline_energy_j:.3e} J"]
        for r in self.records:
            status = "OK " if r.within_envelope else "OUT"
            fallback = " fallback" if r.fallback_engaged else ""
            lines.append(
                f"  [{status}] {r.model:<32} "
                f"err={r.deviation.mean_abs_error:.4f} "
                f"bias={r.deviation.bias:+.4f} "
                f"max={r.deviation.max_abs_error:.4f} "
                f"dE={r.energy_delta_j:+.3e} J{fallback}")
        return lines

    def as_dict(self) -> dict:
        """Serialisable view (used by determinism tests and exports)."""
        return {
            "seed": self.config.seed,
            "baseline_energy_j": self.baseline_energy_j,
            "records": [
                {
                    "model": r.model,
                    "n_injected": r.n_injected,
                    "mean_abs_error": r.deviation.mean_abs_error,
                    "bias": r.deviation.bias,
                    "max_abs_error": r.deviation.max_abs_error,
                    "rmse": r.deviation.rmse,
                    "within_envelope": r.within_envelope,
                    "array_mean_abs_error": r.array_mean_abs_error,
                    "crossbar_relative_error": r.crossbar_relative_error,
                    "fallback_engaged": r.fallback_engaged,
                    "retries": r.retries,
                    "recoveries": r.recoveries,
                    "aqm_drops": r.aqm_drops,
                    "energy_j": r.energy_j,
                    "energy_delta_j": r.energy_delta_j,
                    "events": dict(sorted(r.events.items())),
                }
                for r in self.records
            ],
        }


class FaultCampaign:
    """Deterministic sweep of fault models over the analog stack."""

    def __init__(self, config: CampaignConfig | None = None,
                 **overrides) -> None:
        if config is None:
            config = CampaignConfig(**overrides)
        elif overrides:
            raise ValueError("pass either a config or keyword overrides")
        self.config = config

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    def _build_aqm(self, rng: np.random.Generator,
                   ledger: EnergyLedger) -> PCAMAQM:
        cfg = self.config
        # Adaptation is disabled so every measured deviation is
        # attributable to the injected fault, not controller retuning.
        return PCAMAQM(target_delay_s=cfg.target_delay_s,
                       max_deviation_s=cfg.max_deviation_s,
                       order=cfg.order, use_buffer=cfg.use_buffer,
                       adaptation=False, ledger=ledger, rng=rng)

    @staticmethod
    def _build_array() -> PCAMArray:
        """A small stored-policy array probed at the array layer."""
        array = PCAMArray(["delay", "load"])
        array.add({"delay": PCAMParams.canonical(0.1, 0.3, 0.6, 0.9),
                   "load": PCAMParams.canonical(0.0, 0.2, 0.5, 0.8)})
        array.add({"delay": PCAMParams.canonical(0.2, 0.4, 0.5, 0.7),
                   "load": PCAMParams.canonical(0.1, 0.3, 0.6, 0.9)})
        array.add({"delay": PCAMParams.canonical(-0.5, 0.0, 0.1, 0.6),
                   "load": PCAMParams.canonical(0.4, 0.6, 0.7, 1.0)})
        array.add({"delay": PCAMParams.canonical(0.0, 0.5, 0.6, 1.0),
                   "load": PCAMParams.canonical(0.2, 0.4, 0.8, 1.0)})
        return array

    # ------------------------------------------------------------------
    # Layer probes
    # ------------------------------------------------------------------
    def _array_layer_error(self, model: FaultModel,
                           rng: np.random.Generator) -> float:
        array = self._build_array()
        clean = array.clone_ideal()
        FaultInjector(model, cell_fraction=self.config.cell_fraction,
                      rng=rng).inject_array(array)
        queries = {"delay": rng.uniform(-0.6, 1.2, 64),
                   "load": rng.uniform(-0.2, 1.2, 64)}
        faulty = array.match_batch(queries)
        ideal = clean.match_batch(queries)
        return float(np.mean(np.abs(faulty - ideal)))

    def _crossbar_layer_error(self, model: FaultModel,
                              rng: np.random.Generator) -> float | None:
        if not isinstance(model, StuckAtFault):
            return None
        bar = Crossbar(8, 8, losses=LineLossModel.ideal(),
                       variability=VariabilityModel.ideal())
        weights = rng.uniform(0.2, 0.8, size=(8, 8))
        bar.program_normalised(weights)
        voltages = rng.uniform(0.5, 1.5, size=8)
        ideal = bar.ideal_matvec(voltages)
        plan = CrossbarFaultPlan.sample(
            (8, 8), fault_rate=0.1, rng=rng,
            conductance_bounds=bar.conductance_bounds,
            stuck_on_fraction=1.0 if model.state == "lrs" else 0.0)
        bar.install_fault_plan(plan)
        faulty = bar.matvec(voltages, noisy=False).currents_a
        norm = float(np.linalg.norm(ideal))
        if norm == 0.0:
            return 0.0
        return float(np.linalg.norm(faulty - ideal) / norm)

    # ------------------------------------------------------------------
    # Traffic phase
    # ------------------------------------------------------------------
    def _run_traffic(self, aqm: PCAMAQM, telemetry: TelemetryCollector,
                     rng: np.random.Generator) -> DegradingAQM:
        """Push synthetic congestion through the degradation wrapper."""
        cfg = self.config
        degrader = DegradingAQM(
            aqm, pdp_envelope=cfg.pdp_envelope,
            check_interval=cfg.check_interval, trip_after=cfg.trip_after,
            backoff_initial_s=4 * cfg.step_s,
            backoff_max_s=64 * cfg.step_s, telemetry=telemetry)
        manager = CognitiveTrafficManager(
            n_ports=1, aqm_factory=lambda: degrader,
            queue_capacity=cfg.queue_capacity,
            port_rate_bps=cfg.port_rate_bps, telemetry=telemetry)
        now = 0.0
        service_per_step = max(1, cfg.chunk_size // 2)
        for _ in range(cfg.n_steps):
            packets = [Packet(size_bytes=1500,
                              flow_id=int(rng.integers(8)),
                              priority=int(rng.integers(2)),
                              created_at=now)
                       for _ in range(cfg.chunk_size)]
            manager.enqueue_batch(0, packets, now)
            for _ in range(service_per_step):
                manager.dequeue(0, now)
            now += cfg.step_s
        return degrader

    # ------------------------------------------------------------------
    # The campaign
    # ------------------------------------------------------------------
    def run(self) -> CampaignResult:
        """Sweep every fault model; deterministic in the config seed."""
        cfg = self.config
        root = np.random.SeedSequence(cfg.seed)
        baseline_seq, *model_seqs = root.spawn(1 + len(cfg.fault_models))

        baseline_energy = self._baseline_energy(baseline_seq)
        records = []
        for model, seq in zip(cfg.fault_models, model_seqs):
            records.append(self._run_model(model, seq, baseline_energy))
        return CampaignResult(config=cfg,
                              baseline_energy_j=baseline_energy,
                              records=tuple(records))

    def _baseline_energy(self, seq: np.random.SeedSequence) -> float:
        """Energy of the clean (fault-free) traffic run."""
        if not self.config.include_traffic:
            return 0.0
        aqm_rng, traffic_rng = (np.random.default_rng(s)
                                for s in seq.spawn(2))
        ledger = EnergyLedger()
        aqm = self._build_aqm(aqm_rng, ledger)
        self._run_traffic(aqm, TelemetryCollector(), traffic_rng)
        return ledger.total

    def _run_model(self, model: FaultModel, seq: np.random.SeedSequence,
                   baseline_energy: float) -> CampaignRecord:
        cfg = self.config
        (aqm_rng, inject_rng, probe_rng, traffic_rng, array_rng,
         crossbar_rng) = (np.random.default_rng(s) for s in seq.spawn(6))

        ledger = EnergyLedger()
        telemetry = TelemetryCollector()
        aqm = self._build_aqm(aqm_rng, ledger)

        # Oracle phase: reference from intent, then inject, then probe.
        oracle = DifferentialOracle.from_intended(aqm.pipeline,
                                                  cfg.envelope)
        probes = oracle.probe_grid(cfg.n_probes, probe_rng)
        injection = FaultInjector(
            model, cell_fraction=cfg.cell_fraction,
            rng=inject_rng).inject_aqm(aqm)
        deviation = oracle.compare(aqm.pipeline, probes)

        # Sibling layers.
        array_error = self._array_layer_error(model, array_rng)
        crossbar_error = self._crossbar_layer_error(model, crossbar_rng)

        # Traffic phase through the graceful-degradation wrapper.
        fallback_engaged = False
        retries = recoveries = aqm_drops = 0
        energy = 0.0
        if cfg.include_traffic:
            degrader = self._run_traffic(aqm, telemetry, traffic_rng)
            fallback_engaged = degrader.fallback_events > 0
            retries = degrader.retries
            recoveries = degrader.recoveries
            aqm_drops = telemetry.event_count("port0.aqm_drop")
            energy = ledger.total

        return CampaignRecord(
            model=model.name,
            n_injected=injection.n_injected,
            deviation=deviation,
            within_envelope=deviation.within(cfg.envelope),
            array_mean_abs_error=array_error,
            crossbar_relative_error=crossbar_error,
            fallback_engaged=fallback_engaged,
            retries=retries,
            recoveries=recoveries,
            aqm_drops=aqm_drops,
            energy_j=energy,
            energy_delta_j=energy - baseline_energy,
            events=dict(telemetry.snapshot()["events"]))

