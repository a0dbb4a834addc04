"""Fleet-scale closed-loop learning over a sharded fabric.

The fabric's programming vocabulary is fleet-wide by construction —
:class:`~repro.fabric.controller.FabricController` applies each
committed op to *every* shard under the chunk-dispatch lock — so a
learned candidate is always deployed uniformly: no chunk can observe
shard 0 running one programming and shard 1 another.  This module
closes the learning loop over that primitive:

* :class:`FleetSensor` windows the fabric's ``poll_metrics()``
  document into one observation per decision, keeping the per-shard
  rows (measurement runs per shard) and aggregating worst-case: the
  fleet is scored on its most congested slice;
* :class:`FleetActuator` turns each applied action into one complete
  two-phase commit;
* :class:`FleetLearningController` wires a learned policy
  (:class:`~repro.control.learning.SPSAPolicy` or
  :class:`~repro.control.learning.CEMPolicy`) through both, with the
  :class:`~repro.control.learning.EnvelopeGate` interlock when the
  shard AQMs are handed in, and :meth:`finalise` shares the
  winning programming fleet-wide through one final commit.

The default delay signal is *backlog-implied* (worst per-port queue
divided by the port's service rate) rather than the per-shard delay
EWMAs: a fabric port's backlog is the sum of its shards' backlogs —
a partition invariant — while per-shard EWMAs depend on how the RSS
steering split the flows.  Learning from the invariant signal is
what makes the learned programming independent of the shard count
(pinned by ``tests/test_control_determinism.py``).
"""

from __future__ import annotations

from repro.control.loop import Action, ControlLoop, queue_drops
from repro.control.learning import EnvelopeGate

__all__ = ["FleetActuator", "FleetLearningController", "FleetSensor"]


class FleetSensor:
    """Windows a fabric metrics poll into per-decision observations.

    ``controller`` is anything exposing the fabric ``poll_metrics()``
    document (a :class:`~repro.fabric.controller.FabricController` or
    the fabric itself).  ``drain_pps`` — the per-port egress service
    rate — selects the backlog-implied delay signal; without it the
    sensor falls back to the worst per-shard delay EWMA.  Drops are
    the shards' queue losses (AQM and overflow), counted exactly as
    :class:`~repro.control.loop.SwitchSensor` counts one switch's.
    """

    def __init__(self, controller, *, drain_pps: float | None = None
                 ) -> None:
        self._controller = controller
        self._drain_pps = drain_pps
        self._last_processed = 0
        self._last_drops = 0

    def _implied_delay_s(self, metrics: dict) -> float:
        gauges = metrics["telemetry"]["gauges"]
        backlogs = [value for name, value in gauges.items()
                    if name.endswith(".backlog")]
        worst = max(backlogs, default=0.0)
        return worst / self._drain_pps

    def sense(self, now: float) -> dict:
        metrics = self._controller.poll_metrics()
        rows = metrics["shards"]
        processed = metrics["processed"]
        drops = sum(queue_drops(row["verdict_counts"]) for row in rows)
        window_packets = processed - self._last_processed
        window_drops = drops - self._last_drops
        self._last_processed = processed
        self._last_drops = drops
        if self._drain_pps is not None:
            delay_s = self._implied_delay_s(metrics)
        else:
            delay_s = max((row.get("delay_ewma_s", 0.0) for row in rows),
                          default=0.0)
        return {
            "packets": window_packets,
            "drops": window_drops,
            "drop_rate": (window_drops / window_packets
                          if window_packets else 0.0),
            "delay_s": delay_s,
            "backlog": sum(row.get("backlog", 0) for row in rows),
            "generation": metrics["generation"],
            "shards": rows,
        }


class FleetActuator:
    """One applied action == one two-phase fleet commit."""

    def __init__(self, fabric_controller) -> None:
        self._controller = fabric_controller
        self.commits = 0

    @property
    def generation(self) -> int:
        return self._controller.generation

    def apply(self, action: Action) -> bool:
        self._controller.stage(action.kind, *action.args)
        self._controller.commit()
        self.commits += 1
        return True


class FleetLearningController:
    """A learned policy closed over a whole fabric.

    Drive :meth:`step` on the sim clock (e.g. once per admitted
    slice); every candidate the policy deploys goes through one
    gated, two-phase fleet commit.  When the sweep is done,
    :meth:`finalise` deploys the best-scoring programming the same
    way and returns it.

    ``gate_aqms`` — the shard AQMs (each shard's
    ``processor.traffic_manager.aqm(port)``) — arms the
    :class:`~repro.control.learning.EnvelopeGate` interlock:
    candidates are refused while any table is degraded and rolled
    back when a write lands outside the PDP envelope.
    """

    def __init__(self, fabric_controller, policy, *,
                 min_interval_s: float = 0.05,
                 drain_pps: float | None = None,
                 gate_aqms=None, pdp_envelope: float = 0.10) -> None:
        self.policy = policy
        self.sensor = FleetSensor(fabric_controller,
                                  drain_pps=drain_pps)
        self.actuator = FleetActuator(fabric_controller)
        self.gate: EnvelopeGate | None = None
        actuator = self.actuator
        if gate_aqms is not None:
            self.gate = EnvelopeGate(actuator, gate_aqms,
                                     pdp_envelope=pdp_envelope)
            actuator = self.gate
        self.loop = ControlLoop(self.sensor, policy, actuator,
                                min_interval_s=min_interval_s)

    def step(self, now: float) -> tuple[Action, ...]:
        return self.loop.step(now)

    @property
    def commits(self) -> int:
        return self.actuator.commits

    @property
    def programming(self) -> tuple[float, float]:
        return self.policy.programming

    @property
    def best_programming(self) -> tuple[float, float]:
        return self.policy.best_programming

    def finalise(self) -> tuple[float, float]:
        """Share the winning programming fleet-wide, transactionally.

        One two-phase commit (gated like any candidate): every shard
        flips to the best-scoring programming at the same generation.
        Returns the shared ``(target_delay_s, max_deviation_s)``.
        """
        target, deviation = self.policy.best_programming
        actuator = self.gate if self.gate is not None else self.actuator
        actuator.apply(Action("retarget", (target, deviation)))
        return target, deviation
