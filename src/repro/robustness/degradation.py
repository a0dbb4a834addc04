"""Graceful degradation: shadow oracle, digital fallback, retry backoff.

The analog pCAM AQM is fast and cheap but can silently mis-rank drop
probabilities when its devices fault.  :class:`DegradingAQM` wraps it
with the safety net Figure 5's cognitive controller implies:

* a :class:`ShadowOracle` — a cheap digital twin built from each
  stage's *intended* parameters — spot-checks the analog PDP every
  ``check_interval`` evaluations;
* after ``trip_after`` consecutive out-of-envelope checks the port
  falls back to a digital AQM baseline (CoDel by default) and the
  event is recorded in telemetry;
* the retry path reprograms the analog pipeline (a refresh scrub that
  clears transient faults) under exponential backoff, driven either
  internally at enqueue time or externally by
  :meth:`repro.control.cognitive.CognitiveNetworkController.tick`.

The wrapper is itself an :class:`~repro.netfunc.aqm.base.AQMAlgorithm`,
so it drops into :class:`~repro.dataplane.traffic_manager.CognitiveTrafficManager`
unchanged — degradation is a per-table (per-port) decision.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.core.pcam_pipeline import PCAMPipeline
from repro.dataplane.telemetry import TelemetryCollector
from repro.netfunc.aqm.base import AQMAlgorithm, QueueView
from repro.netfunc.aqm.codel import CoDelAqm
from repro.netfunc.aqm.pcam_aqm import PCAMAQM
from repro.packet import Packet

__all__ = ["DegradingAQM", "ShadowOracle"]


class ShadowOracle:
    """A digital twin of an analog pipeline, built from intent.

    Evaluates an ideal pipeline programmed with each stage's
    :attr:`~repro.core.pcam_cell.PCAMCell.intended_params` — the
    :meth:`~repro.core.pcam_pipeline.PCAMPipeline.clone_ideal` twin the
    differential oracle compares against, rebuilt when the intent
    changes — so injected faults never leak into the shadow.  This is
    the "cheap shadow digital oracle" the traffic manager uses to
    detect out-of-envelope analog outputs.
    """

    def __init__(self, pipeline: PCAMPipeline) -> None:
        self.pipeline = pipeline
        #: The intent-built pipeline, built on the first check.
        self.reference: PCAMPipeline | None = None
        self.checks = 0

    def twin(self) -> PCAMPipeline:
        """The intent-built pipeline for one check (counted), rebuilt
        first if any stage's intent changed."""
        reference = self.reference
        for name in self.pipeline.stage_names:
            stage = self.pipeline.stage(name)
            intended = getattr(stage, "intended_params", stage.params)
            if reference is None or \
                    reference.stage(name).params is not intended:
                reference = self.reference = self.pipeline.clone_ideal()
                break
        self.checks += 1
        return reference

    def evaluate(self, features: Mapping[str, np.ndarray]) -> np.ndarray:
        """Digital composite probabilities for a voltage-domain batch."""
        return self.twin().evaluate_batch(features)

    def deviation(self, features: Mapping[str, np.ndarray],
                  outputs: np.ndarray) -> float:
        """Largest |analog - shadow| over one observed batch."""
        shadow = self.evaluate(features)
        return float(np.max(np.abs(np.atleast_1d(outputs) - shadow),
                            initial=0.0))


class DegradingAQM(AQMAlgorithm):
    """Analog pCAM AQM with a monitored digital fallback per table.

    Parameters
    ----------
    analog:
        The pCAM AQM to protect.  Its ``output_monitor`` hook is
        claimed by this wrapper.
    fallback:
        The digital path used while degraded (CoDel by default — the
        same role the digital TCAM path plays for match tables).
    pdp_envelope:
        Largest |analog - shadow| PDP deviation tolerated per check.
    check_interval:
        Shadow-check every Nth pipeline evaluation (the oracle costs
        one digital pipeline pass, so checking every call would double
        the evaluation cost).
    trip_after:
        Consecutive out-of-envelope checks before falling back.
    backoff_initial_s / backoff_max_s:
        Reprogram-retry backoff window; doubles per failed retry, and
        resets once the analog path proves healthy again.
    recover_after:
        Consecutive clean checks after a retry before the table is
        declared recovered (and the backoff resets).
    table:
        Telemetry namespace for events and gauges.
    telemetry:
        Collector receiving fallback/retry/recovery events; optional.
    """

    name = "degrading-pcam-aqm"

    def __init__(self, analog: PCAMAQM,
                 fallback: AQMAlgorithm | None = None, *,
                 pdp_envelope: float = 0.10,
                 check_interval: int = 8,
                 trip_after: int = 3,
                 backoff_initial_s: float = 0.5,
                 backoff_max_s: float = 8.0,
                 recover_after: int = 2,
                 table: str = "pcam_aqm",
                 telemetry: TelemetryCollector | None = None) -> None:
        if pdp_envelope <= 0:
            raise ValueError(
                f"PDP envelope must be positive: {pdp_envelope!r}")
        if check_interval < 1:
            raise ValueError(
                f"check interval must be >= 1: {check_interval!r}")
        if trip_after < 1:
            raise ValueError(f"trip_after must be >= 1: {trip_after!r}")
        if backoff_initial_s <= 0 or backoff_max_s < backoff_initial_s:
            raise ValueError(
                f"need 0 < backoff_initial_s <= backoff_max_s: "
                f"{backoff_initial_s!r}, {backoff_max_s!r}")
        self.analog = analog
        self.fallback = fallback if fallback is not None else CoDelAqm()
        self.pdp_envelope = pdp_envelope
        self.check_interval = check_interval
        self.trip_after = trip_after
        self.backoff_initial_s = backoff_initial_s
        self.backoff_max_s = backoff_max_s
        self.recover_after = recover_after
        self.table = table
        self.telemetry = telemetry
        self.shadow = ShadowOracle(analog.pipeline)
        analog.output_monitor = self._monitor
        self._reset_monitor_state()

    def _reset_monitor_state(self) -> None:
        #: True while serving from the digital fallback path.
        self.degraded = False
        self._now = 0.0
        self._calls_since_check = 0
        self._violation_streak = 0
        self._clean_streak = 0
        self._probation = False
        self._backoff_s = self.backoff_initial_s
        self._next_retry_s: float | None = None
        self.last_deviation = 0.0
        self.fallback_events = 0
        self.retries = 0
        self.recoveries = 0

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def mode(self) -> str:
        """``"analog"`` or ``"fallback"``."""
        return "fallback" if self.degraded else "analog"

    @property
    def pipeline(self) -> PCAMPipeline:
        """The protected analog pipeline (tracer/profiler attach here).

        Forwarded from the wrapped AQM so callers wiring observability
        need one attribute whether or not a table is wrapped.
        """
        return self.analog.pipeline

    @property
    def next_retry_s(self) -> float | None:
        """When the next reprogram retry is due (None when healthy)."""
        return self._next_retry_s

    def _record(self, event: str) -> None:
        if self.telemetry is not None:
            self.telemetry.record_event(f"{self.table}.{event}")

    def _gauges(self) -> None:
        if self.telemetry is not None:
            self.telemetry.set_gauge(f"{self.table}.degraded",
                                     1.0 if self.degraded else 0.0)
            self.telemetry.set_gauge(f"{self.table}.shadow_deviation",
                                     self.last_deviation)

    # ------------------------------------------------------------------
    # Shadow monitoring (runs inside the analog evaluation)
    # ------------------------------------------------------------------
    def _monitor(self, features: dict[str, np.ndarray],
                 outputs: np.ndarray) -> None:
        """The analog AQM's ``output_monitor``: one call per evaluation.

        An admission chunk arrives as its one feature row with one PDP
        per packet; the shadow evaluates the row once and the
        deviation is the max over the PDPs.
        """
        self._calls_since_check += 1
        if self._calls_since_check < self.check_interval:
            return
        self._calls_since_check = 0
        self.last_deviation = self.shadow.deviation(features, outputs)
        if self.last_deviation > self.pdp_envelope:
            self._violation_streak += 1
            self._clean_streak = 0
            if self._violation_streak >= self.trip_after:
                self._trip()
        else:
            self._violation_streak = 0
            self._clean_streak += 1
            if self._probation and self._clean_streak >= self.recover_after:
                self._probation = False
                self._backoff_s = self.backoff_initial_s
                self._next_retry_s = None
                self.recoveries += 1
                self._record("recovered")
        self._gauges()

    def _trip(self) -> None:
        self.degraded = True
        self._violation_streak = 0
        self._clean_streak = 0
        self.fallback_events += 1
        self._next_retry_s = self._now + self._backoff_s
        self._record("fallback_engaged")
        self._gauges()

    # ------------------------------------------------------------------
    # Retry / reprogram backoff
    # ------------------------------------------------------------------
    def maybe_retry(self, now: float) -> bool:
        """Attempt an analog recovery if the backoff window elapsed.

        Reprograms every stage with its intended parameters (scrubbing
        transient faults), moves the table back to the analog path on
        probation, and doubles the backoff so a persistently faulty
        table settles into the digital fallback.  Returns True when a
        retry was performed — the controller counts these as
        ``update_pCAM`` reprogram events.
        """
        if not self.degraded:
            return False
        if self._next_retry_s is not None and now < self._next_retry_s:
            return False
        self.analog.reprogram_intended()
        self.degraded = False
        self._probation = True
        self._clean_streak = 0
        self._violation_streak = 0
        self._calls_since_check = self.check_interval - 1  # check soon
        self._backoff_s = min(self._backoff_s * 2.0, self.backoff_max_s)
        self._next_retry_s = None
        self.retries += 1
        self._record("retry")
        self._gauges()
        return True

    # ------------------------------------------------------------------
    # AQM hooks
    # ------------------------------------------------------------------
    def on_enqueue(self, packet: Packet, queue: QueueView,
                   now: float) -> bool:
        return bool(self.on_enqueue_batch([packet], queue, now)[0])

    def serving(self, now: float) -> AQMAlgorithm:
        """The path judging arrivals at ``now``, after a due retry: the
        analog AQM, or the fallback while degraded."""
        self._now = now
        self.maybe_retry(now)
        return self.fallback if self.degraded else self.analog

    def on_enqueue_batch(self, packets: Sequence[Packet],
                         queue: QueueView, now: float) -> np.ndarray:
        return self.serving(now).on_enqueue_batch(packets, queue, now)

    def on_dequeue(self, packet: Packet, queue: QueueView,
                   now: float, sojourn_s: float) -> bool:
        self._now = now
        if self.degraded:
            return self.fallback.on_dequeue(packet, queue, now, sojourn_s)
        return self.analog.on_dequeue(packet, queue, now, sojourn_s)

    @property
    def replays_dequeues(self) -> bool:
        """Whether the path now serving (analog or CoDel) is replayable."""
        active = self.fallback if self.degraded else self.analog
        return active.replays_dequeues

    def on_dequeue_batch(self, runs: Sequence[tuple[float, int]],
                         queue: QueueView, now: float) -> None:
        self._now = now
        active = self.fallback if self.degraded else self.analog
        active.on_dequeue_batch(runs, queue, now)

    def reset(self) -> None:
        """Reset both paths and return to analog service."""
        self.analog.reset()
        self.fallback.reset()
        self._reset_monitor_state()
