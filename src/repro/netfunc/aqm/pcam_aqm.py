"""The pCAM-based analog AQM (paper Sec. 5, Figures 6 and 8).

Data flow (Figure 6): the traffic manager collects **sojourn time**
and **buffer size**, analog differentiators derive their 1st/2nd/3rd
order derivatives, every feature is mapped to a hardware voltage
(DAC), and the series pCAM pipeline outputs the Packet Drop
Probability (PDP) directly — ``drop = pipeline { pCAM(sojourn_time),
pCAM(d/dt(sojourn_time)), ..., pCAM(d3/dt3(buffer_size)) }``.

Programming (the default produced by :func:`default_stage_programs`):

* The two zeroth-order stages carry the latency objective — "pCAM has
  been programmed to maintain an average delay of 20 ms with a
  maximum deviation of 10 ms": PDP ramps from 0 at
  ``target - deviation`` to 1 at ``target + deviation``.
* The derivative stages are *veto* stages: their acceptance plateau
  covers "congestion not improving" (derivative above a small
  negative threshold) and their response falls toward ``pmin`` when
  the derivative is strongly negative — i.e. when delay is already
  collapsing, dropping more packets is pointless.  This is how the
  higher-order features adapt the PDP to the congestion *dynamics*,
  not just its level.

The run-time ``update_pCAM()`` action implements the cognitive
controller: it watches the measured delay EWMA and reprograms the
zeroth-order thresholds when the delay leaves the programmed band.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core.calibration import FeatureScaler, scale_params
from repro.core.pcam_cell import PCAMParams, prog_pcam
from repro.core.pcam_pipeline import PCAMPipeline
from repro.core.programming import update_pcam
from repro.packet import Packet
from repro.energy.ledger import EnergyLedger
from repro.netfunc.aqm.base import AQMAlgorithm, QueueView
from repro.netfunc.aqm.derivatives import FeatureExtractor

__all__ = [
    "DEFAULT_MAX_DEVIATION_S",
    "DEFAULT_TARGET_DELAY_S",
    "PCAMAQM",
    "StageSpec",
    "default_stage_programs",
]

#: The paper's programmed latency objective (Figure 8).
DEFAULT_TARGET_DELAY_S = 0.020
DEFAULT_MAX_DEVIATION_S = 0.010

#: Hardware voltage window features are mapped into (inside the
#: device's encodable range).
_V_LO, _V_HI = -1.8, 3.8
#: Per-cell analog search energy at the dataset's low-energy states.
_DEFAULT_ENERGY_PER_CELL_J = 1e-17
#: Two threshold memristors per pCAM cell.
_CELLS_PER_STAGE = 2


@dataclass(frozen=True)
class StageSpec:
    """One pipeline stage: feature-domain parameters plus the feature
    range its DAC scaler covers."""

    params: PCAMParams
    feature_lo: float
    feature_hi: float

    def __post_init__(self) -> None:
        if self.feature_lo >= self.feature_hi:
            raise ValueError("empty feature range")
        if self.params.m1 < self.feature_lo \
                or self.params.m4 > self.feature_hi:
            raise ValueError(
                f"stage thresholds [{self.params.m1}, {self.params.m4}] "
                f"exceed the scaler range "
                f"[{self.feature_lo}, {self.feature_hi}]")


def default_stage_programs(
        target_delay_s: float = DEFAULT_TARGET_DELAY_S,
        max_deviation_s: float = DEFAULT_MAX_DEVIATION_S,
        order: int = 3,
        use_buffer: bool = True) -> dict[str, StageSpec]:
    """The paper's AQM program in feature units.

    Returns stage specs keyed by feature name, in pipeline order.
    ``order`` limits how many derivative stages are built (0 = only
    the zeroth-order features; the A1 ablation sweeps this).
    """
    if target_delay_s <= 0:
        raise ValueError(f"target must be positive: {target_delay_s!r}")
    if not 0 < max_deviation_s < target_delay_s:
        raise ValueError(
            f"deviation must be in (0, target): {max_deviation_s!r}")
    if not 0 <= order <= 3:
        raise ValueError(f"order must be 0..3: {order!r}")

    lo = target_delay_s - max_deviation_s
    hi = target_delay_s + max_deviation_s
    # The PDP plateau extends well past the band; the falling edge sits
    # beyond any delay the scaler can express, so it is never reached.
    delay_range = (0.0, 10.0 * target_delay_s)
    delay_params = prog_pcam(m1=lo, m2=hi,
                             m3=8.0 * target_delay_s,
                             m4=9.5 * target_delay_s)

    # Derivative veto stages: full weight unless the derivative is
    # clearly negative (congestion already collapsing).  Scales grow
    # by the differentiation bandwidth per order.
    def veto(scale: float, pmin: float) -> StageSpec:
        params = prog_pcam(m1=-10.0 * scale, m2=-0.5 * scale,
                           m3=80.0 * scale, m4=95.0 * scale,
                           pmin=pmin, pmax=1.0)
        return StageSpec(params=params, feature_lo=-20.0 * scale,
                         feature_hi=100.0 * scale)

    sojourn_specs = [
        StageSpec(params=delay_params,
                  feature_lo=delay_range[0], feature_hi=delay_range[1]),
        veto(scale=0.1, pmin=0.10),    # d/dt sojourn   [s/s]
        veto(scale=2.0, pmin=0.25),    # d2/dt2 sojourn [s/s^2]
        veto(scale=40.0, pmin=0.40),   # d3/dt3 sojourn [s/s^3]
    ]
    buffer_specs = [
        StageSpec(params=delay_params,
                  feature_lo=delay_range[0], feature_hi=delay_range[1]),
        veto(scale=0.1, pmin=0.10),
        veto(scale=2.0, pmin=0.25),
        veto(scale=40.0, pmin=0.40),
    ]
    names = FeatureExtractor.NAMES
    programs: dict[str, StageSpec] = {}
    for index in range(order + 1):
        programs[names.sojourn[index]] = sojourn_specs[index]
    if use_buffer:
        for index in range(order + 1):
            programs[names.buffer[index]] = buffer_specs[index]
    return programs


class PCAMAQM(AQMAlgorithm):
    """Active queue management on the analog pCAM pipeline.

    Parameters
    ----------
    target_delay_s, max_deviation_s:
        The latency objective (paper: 20 ms +- 10 ms).
    order:
        Highest derivative order used as a feature (0..3).
    use_buffer:
        Include the buffer-size feature family.
    composition:
        Stage composition rule (paper: ``"product"``).
    adaptation:
        Enable the run-time ``update_pCAM()`` controller.
    adaptation_interval_s:
        How often the controller may reprogram the hardware.
    priority_weights:
        Multiplier on the PDP per priority class; defaults to
        ``{0: 0.5}`` so class-0 (high priority) traffic sees half the
        drop probability, as the paper describes.
    stage_programs:
        Override the default program entirely (expert knob for the
        ablations).
    ledger:
        Energy ledger charged per analog search.
    energy_per_cell_j:
        Per-cell read energy (calibrate from the dataset with
        :func:`repro.core.calibration.analog_read_energy_j`).
    ecn_enabled:
        Mark ECN-capable packets (``ect`` field) with Congestion
        Experienced instead of dropping them — the action a responsive
        sender (:class:`repro.simnet.responsive.AIMDFlowGenerator`)
        reacts to.
    rng:
        Random generator for the Bernoulli drop decisions.
    """

    name = "pCAM-AQM"

    def __init__(self,
                 target_delay_s: float = DEFAULT_TARGET_DELAY_S,
                 max_deviation_s: float = DEFAULT_MAX_DEVIATION_S,
                 order: int = 3,
                 use_buffer: bool = True,
                 composition: str = "product",
                 adaptation: bool = True,
                 adaptation_interval_s: float = 0.25,
                 priority_weights: dict[int, float] | None = None,
                 stage_programs: dict[str, StageSpec] | None = None,
                 ledger: EnergyLedger | None = None,
                 energy_per_cell_j: float = _DEFAULT_ENERGY_PER_CELL_J,
                 feature_tau_s: float = 0.02,
                 ecn_enabled: bool = False,
                 rng: np.random.Generator | None = None) -> None:
        self.target_delay_s = target_delay_s
        self.max_deviation_s = max_deviation_s
        self.order = order
        self.use_buffer = use_buffer
        self.adaptation = adaptation
        self.adaptation_interval_s = adaptation_interval_s
        self.priority_weights = (priority_weights if priority_weights
                                 is not None else {0: 0.5})
        self.ledger = ledger if ledger is not None else EnergyLedger()
        self.energy_per_cell_j = energy_per_cell_j
        self.feature_tau_s = feature_tau_s
        self.ecn_enabled = ecn_enabled
        self._rng = rng or np.random.default_rng()
        #: Observation hook: called with (voltage-domain feature batch,
        #: raw PDP array) once per pipeline evaluation, before priority
        #: weighting.  An admission chunk arrives as its one feature
        #: row with one PDP per packet (identical unless a stage draws
        #: per-element noise).  The graceful-degradation shadow oracle
        #: attaches here; None disables monitoring.
        self.output_monitor: Callable[[dict[str, np.ndarray], np.ndarray],
                                      None] | None = None

        self._base_specs = (dict(stage_programs)
                            if stage_programs is not None
                            else default_stage_programs(
                                target_delay_s, max_deviation_s,
                                order=order, use_buffer=use_buffer))
        self._scalers = {
            name: FeatureScaler(spec.feature_lo, spec.feature_hi,
                                _V_LO, _V_HI)
            for name, spec in self._base_specs.items()}
        # Saturate each feature inside its stage's deterministic
        # plateau: a congestion signal beyond all bounds must read as
        # "maximum drop weight", never wrap past M4 into the falling
        # mismatch region of the five-region cell.
        self._input_caps = {
            name: spec.params.m3
            for name, spec in self._base_specs.items()}
        voltage_params = {
            name: scale_params(spec.params, self._scalers[name])
            for name, spec in self._base_specs.items()}
        self.pipeline = PCAMPipeline.from_params(
            voltage_params, composition=composition)
        self._extractor = FeatureExtractor(order=max(order, 1),
                                           tau_s=feature_tau_s)
        self.reset_runtime_state()

    def reset_runtime_state(self) -> None:
        """Clear controller state without touching the programs."""
        self._delay_ewma: float | None = None
        self._last_adaptation: float | None = None
        self._threshold_shift = 1.0
        self.adaptations = 0
        self.evaluations = 0
        self.last_pdp = 0.0
        self.ecn_marks = 0

    def reset(self) -> None:
        """Restore the base program and clear controller state."""
        self.reset_runtime_state()
        self._extractor.reset()
        self._reprogram_delay_stages(1.0)

    def retarget(self, target_delay_s: float,
                 max_deviation_s: float | None = None) -> None:
        """Change the latency objective at run time.

        Rebuilds the zeroth-order stage programs (and their scalers)
        for the new band and pushes them through ``update_pCAM`` —
        the knob the learned control loop turns.  Derivative veto
        stages are unaffected.
        """
        if max_deviation_s is None:
            # Preserve the relative band width.
            max_deviation_s = (self.max_deviation_s
                               / self.target_delay_s * target_delay_s)
        fresh = default_stage_programs(target_delay_s, max_deviation_s,
                                       order=self.order,
                                       use_buffer=self.use_buffer)
        names = FeatureExtractor.NAMES
        for name in (names.sojourn[0], names.buffer[0]):
            if name not in fresh:
                continue
            spec = fresh[name]
            self._base_specs[name] = spec
            self._scalers[name] = FeatureScaler(
                spec.feature_lo, spec.feature_hi, _V_LO, _V_HI)
            self._input_caps[name] = spec.params.m3
            update_pcam(self.pipeline, name,
                        scale_params(spec.params, self._scalers[name]))
        self.target_delay_s = target_delay_s
        self.max_deviation_s = max_deviation_s
        self._threshold_shift = 1.0

    # ------------------------------------------------------------------
    # Feature path
    # ------------------------------------------------------------------
    def _raw_features(self, queue: QueueView,
                      now: float) -> dict[str, float]:
        """Extractor output in feature units (pre-cap, pre-DAC)."""
        backlog_delay = 8.0 * queue.backlog_bytes / queue.service_rate_bps
        # The arriving packet will wait at least the current backlog's
        # drain time; before the first departure the measured sojourn
        # is still zero, so the backlog estimate is the floor.
        sojourn = max(queue.last_sojourn_s, backlog_delay)
        return self._extractor.update(now, sojourn, backlog_delay)

    def _charge_searches(self, n: int) -> None:
        """Book ``n`` per-packet pipeline searches.

        One quantum per packet (all stages' cells), however the
        packets were evaluated, booked via
        :meth:`~repro.energy.ledger.EnergyLedger.charge_quanta` so the
        joules are bit-identical however the same packets are chunked
        or sharded.
        """
        self.ledger.charge_quanta(
            "pcam_aqm.search",
            len(self.pipeline) * _CELLS_PER_STAGE * self.energy_per_cell_j,
            n)

    def drop_probabilities(self, features: "Mapping[str, np.ndarray]",
                           priorities: np.ndarray | None = None
                           ) -> np.ndarray:
        """Batch Packet Drop Probabilities from feature-unit arrays.

        ``features`` maps each stage name to an array of raw feature
        values (same units the extractor produces — seconds of sojourn
        time, etc.); each is capped into its stage's deterministic
        plateau, DAC-scaled to voltages, and evaluated through the
        pipeline's batch kernel in one pass.  With ``priorities`` the
        per-class drop weights are applied element-wise, matching the
        scalar enqueue path.
        """
        names = self.pipeline.stage_names
        batch: dict[str, np.ndarray] = {}
        for name in names:
            if name not in features:
                raise KeyError(f"missing feature {name!r}")
            raw = np.atleast_1d(np.asarray(features[name], dtype=float))
            capped = np.minimum(raw, self._input_caps[name])
            batch[name] = self._scalers[name].to_voltage_array(capped)
        return self._judged(batch, self.pipeline.evaluate_batch(batch),
                            priorities)

    def _judged(self, batch: dict[str, np.ndarray], pdps: np.ndarray,
                priorities: np.ndarray | None) -> np.ndarray:
        """Book one pipeline evaluation and weight its PDPs by class."""
        n = int(pdps.shape[0])
        self.evaluations += n
        self._charge_searches(n)
        self.last_pdp = float(pdps[-1])
        if self.output_monitor is not None:
            self.output_monitor(batch, pdps)
        if priorities is not None:
            pdps = pdps * self._priority_weights(priorities)
        return pdps

    def _priority_weights(self, priorities) -> np.ndarray:
        """Per-packet drop weights: ``priority_weights`` or 1.0."""
        classes = np.atleast_1d(np.asarray(priorities)).astype(
            np.int64, copy=False)
        weights = np.ones(classes.shape[0])
        for priority, weight in self.priority_weights.items():
            weights[classes == priority] = weight
        return weights

    def pdp(self, queue: QueueView, now: float) -> float:
        """Evaluate the pipeline: the raw Packet Drop Probability."""
        raw = self._raw_features(queue, now)
        batch = {name: np.array([raw[name]])
                 for name in self.pipeline.stage_names}
        return float(self.drop_probabilities(batch)[0])

    def drop_decisions(self, drop_probabilities: np.ndarray,
                       rng: np.random.Generator | None = None
                       ) -> np.ndarray:
        """Vectorised Bernoulli drop draws, one uniform per packet.

        Consumes exactly one variate per element from the generator's
        stream, in order — so a batch draw reproduces the decisions a
        scalar loop would make from the same seeded stream.
        """
        p = np.atleast_1d(np.asarray(drop_probabilities, dtype=float))
        generator = rng if rng is not None else self._rng
        return generator.random(p.shape[0]) < p

    def reprogram_intended(self,
                           write_energy_per_cell_j: float = 1e-12) -> int:
        """Re-run ``prog_pCAM`` on every stage with its intended params.

        This is the retry action of the graceful-degradation path: a
        refresh scrub that clears transient faults (drift) and
        resamples programming variance, while stuck cells stay stuck.
        Charges the write energy to the ledger and returns the number
        of stages reprogrammed.
        """
        count = 0
        for name in self.pipeline.stage_names:
            stage = self.pipeline.stage(name)
            intended = getattr(stage, "intended_params", stage.params)
            stage.program(intended)
            count += 1
        self.ledger.charge_quanta(
            "pcam_aqm.reprogram",
            _CELLS_PER_STAGE * write_energy_per_cell_j, count)
        return count

    # ------------------------------------------------------------------
    # The update_pCAM() controller
    # ------------------------------------------------------------------
    def _reprogram_delay_stages(self, shift: float) -> None:
        """Scale the zeroth-order thresholds by ``shift`` and program."""
        names = FeatureExtractor.NAMES
        for name in (names.sojourn[0], names.buffer[0]):
            if name not in self._base_specs:
                continue
            base = self._base_specs[name].params
            scaled = PCAMParams.canonical(
                m1=base.m1 * shift, m2=base.m2 * shift,
                m3=base.m3, m4=base.m4,
                pmax=base.pmax, pmin=base.pmin)
            update_pcam(self.pipeline, name,
                        scale_params(scaled, self._scalers[name]))
        self._threshold_shift = shift

    def _maybe_adapt(self, now: float) -> None:
        if not self.adaptation or self._delay_ewma is None:
            return
        if self._last_adaptation is not None and \
                now - self._last_adaptation < self.adaptation_interval_s:
            return
        self._last_adaptation = now
        error = self._delay_ewma - self.target_delay_s
        if abs(error) <= self.max_deviation_s:
            return
        # Delay above the band -> drop earlier (shrink thresholds);
        # below the band with active shift -> relax back toward 1.0.
        if error > 0:
            shift = max(0.4, self._threshold_shift * 0.8)
        else:
            shift = min(1.0, self._threshold_shift * 1.25)
        if shift != self._threshold_shift:
            self._reprogram_delay_stages(shift)
            self.adaptations += 1

    # ------------------------------------------------------------------
    # AQM hooks
    # ------------------------------------------------------------------
    def on_enqueue(self, packet: Packet, queue: QueueView,
                   now: float) -> bool:
        """Bernoulli drop (or ECN mark) from the analog PDP."""
        return bool(self.on_enqueue_batch([packet], queue, now)[0])

    def on_enqueue_batch(self, packets: Sequence[Packet],
                         queue: QueueView, now: float) -> np.ndarray:
        """Batched admission: one pipeline search for a packet chunk.

        All packets in the chunk are judged against the queue state at
        chunk start (the scalar loop re-reads the backlog after every
        admission; a chunk trades that refresh for one evaluation), in
        three steps: :meth:`voltages` reads the chunk-start features,
        :meth:`~repro.core.pcam_pipeline.PCAMPipeline.evaluate_uniform`
        runs the kernel over that one feature column, counted once per
        packet (stages that draw per-element noise still draw one
        value per packet), and :meth:`admit` books and draws.  This is
        the one-port case of the traffic manager's stacked admission
        (:meth:`~repro.dataplane.traffic_manager.CognitiveTrafficManager.enqueue_batch`),
        which runs the same steps with one kernel call for every
        congested port of a slice.  One uniform variate is consumed
        per packet, in packet order, so seeded runs stay reproducible
        chunk size aside — and a chunk of one is exactly the scalar
        path.
        """
        n = len(packets)
        if n == 0 or not self.congested(queue):
            return np.zeros(n, dtype=bool)
        priorities = getattr(packets, "priorities", None)
        if priorities is None:
            priorities = np.array([packet.priority for packet in packets])
        voltages = self.voltages(queue, now)
        pdps = self.pipeline.evaluate_uniform(voltages, n)
        return self.admit(voltages, pdps, priorities, now,
                          getattr(packets, "packets", packets))

    @staticmethod
    def congested(queue: QueueView) -> bool:
        """Whether arrivals are judged at all: the queue holds more than
        two packets (below that nothing is dropped or evaluated)."""
        return queue.backlog_packets > 2

    def voltages(self, queue: QueueView, now: float) -> list[float]:
        """Admission step 1: the chunk-start features as DAC voltages,
        in stage order (each capped into its stage's plateau)."""
        raw = self._raw_features(queue, now)
        return [self._scalers[name].to_voltage(
                    min(raw[name], self._input_caps[name]))
                for name in self.pipeline.stage_names]

    def admit(self, voltages: Sequence[float], pdps: np.ndarray,
              priorities: np.ndarray, now: float, packets=None,
              rows: np.ndarray | None = None) -> np.ndarray:
        """Admission step 3: the drop verdicts for one evaluated chunk.

        ``pdps`` holds one raw PDP per packet for the feature column
        ``voltages``.  Books the evaluation (ledger, ``last_pdp``, the
        ``output_monitor``), weights the PDPs by class, runs the
        ``update_pCAM()`` controller and draws one uniform per packet.
        ``packets`` are the chunk's packet objects, or the whole
        batch's with ``rows`` naming the chunk's rows; ECN-capable ones
        are marked instead of dropped.  Columns carry no ``ect`` field,
        so a column batch (``packets`` None) is never marked.
        """
        batch = ({name: np.array([value]) for name, value
                  in zip(self.pipeline.stage_names, voltages)}
                 if self.output_monitor is not None else {})
        pdps = self._judged(batch, pdps, priorities)
        self._maybe_adapt(now)
        drops = self.drop_decisions(pdps)
        if self.ecn_enabled and packets is not None:
            for index in drops.nonzero()[0].tolist():
                packet = packets[index if rows is None else rows[index]]
                if packet.field("ect", False):
                    # Congestion Experienced: signal, don't discard.
                    packet.fields["ce"] = True
                    self.ecn_marks += 1
                    drops[index] = False
        return drops

    def on_dequeue(self, packet: Packet, queue: QueueView,
                   now: float, sojourn_s: float) -> bool:
        # Never drops at the head; just tracks the measured delay for
        # the adaptation controller.
        """Track the measured delay EWMA (never drops at head)."""
        self.on_dequeue_batch([(float(sojourn_s), 1)], queue, now)
        return False

    #: :meth:`on_dequeue` never drops and reads only the sojourn.
    replays_dequeues = True

    def on_dequeue_batch(self, runs: Sequence[tuple[float, int]],
                         queue: QueueView, now: float) -> None:
        """Fold served ``(sojourn, packets)`` runs into the delay EWMA,
        one update per packet, in order."""
        ewma = self._delay_ewma
        for sojourn, count in runs:
            if ewma is None:
                ewma = sojourn
                count -= 1
            for _ in range(count):
                ewma += 0.05 * (sojourn - ewma)
        self._delay_ewma = ewma

    @property
    def delay_ewma_s(self) -> float:
        """The controller's running estimate of the queue delay."""
        return self._delay_ewma if self._delay_ewma is not None else 0.0

    @property
    def threshold_shift(self) -> float:
        """Current multiplier applied to the zeroth-order thresholds."""
        return self._threshold_shift
