"""The paced sense -> decide -> actuate control loop.

:class:`ControlLoop` is the one shape every run-time reprogramming of
the switch takes.  It holds three duck-typed parts:

* a *sensor* (``sense(now) -> dict``) turns one switch's verdict
  counters and queues into one observation per decision, *consuming*
  the observation window as it does (sense returns the window and
  resets it) — :class:`SwitchSensor`;
* a *policy* (``decide(now, observation) -> actions``) maps the
  observation to a sequence of :class:`Action` s, each named after a
  fabric programming op (``retarget``, ``reprogram_intended``, ...),
  the vocabulary a fabric commit also speaks —
  :class:`~repro.control.learning.SPSAPolicy`;
* an *actuator* (``apply(action) -> bool``) applies one action and
  reports whether it was actually committed — :class:`AQMActuator`,
  behind the :class:`~repro.control.learning.EnvelopeGate` interlock,
  which may refuse.

Pacing is deterministic on the *simulation* clock: a loop decides at
most once per ``min_interval_s`` of sim time, never on wall time, so
rerunning a scenario from its seed replays the decisions.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "AQMActuator",
    "Action",
    "ControlLoop",
    "SwitchSensor",
    "queue_drops",
]


@dataclass(frozen=True)
class Action:
    """One named actuation, in the fabric programming-op vocabulary.

    ``kind`` matches the transactional op names understood by
    :class:`repro.fabric.controller.FabricController` (``retarget``,
    ``reprogram_intended``, ...), so a policy's output can be applied
    to one switch's AQMs *or* staged on a fabric without translation.
    """

    kind: str
    args: tuple = ()


class ControlLoop:
    """One paced sense -> decide -> actuate loop on the sim clock.

    :meth:`step` is cheap when paced: until ``min_interval_s`` of sim
    time has passed since the previous decision the loop returns
    without sensing, so it can be driven from a per-chunk supervision
    hook.  Every decision consumes the sensor's observation window,
    even when the policy holds, so each observation covers exactly
    the traffic since the previous decision.
    """

    def __init__(self, sensor, policy, actuator,
                 min_interval_s: float = 1.0) -> None:
        if min_interval_s <= 0:
            raise ValueError(
                f"interval must be positive: {min_interval_s!r}")
        self.sensor = sensor
        self.policy = policy
        self.actuator = actuator
        self.min_interval_s = min_interval_s
        self._last_decision_s: float | None = None
        self.decisions = 0
        self.applied = 0
        self.rejected = 0

    def step(self, now: float) -> tuple[Action, ...]:
        """Run one paced iteration; returns the actions applied."""
        if self._last_decision_s is not None and \
                now - self._last_decision_s < self.min_interval_s:
            return ()
        self._last_decision_s = now
        observation = self.sensor.sense(now)
        applied = []
        for action in self.policy.decide(now, observation):
            if self.actuator.apply(action):
                self.applied += 1
                applied.append(action)
            else:
                self.rejected += 1
        self.decisions += 1
        return tuple(applied)


#: Queue-loss verdicts: what congestion costs traffic.  Both count —
#: an AQM drop and a tail-overflow drop are the same lost packet, and a
#: policy scored only on AQM drops would learn to prefer programmings
#: loose enough to shift loss into (unpenalised) overflow.
_LOSS_VERDICTS = ("dropped_aqm", "dropped_overflow")


def queue_drops(counts: dict) -> int:
    """Queue-loss packets in a verdict-count map.

    Keys may be verdict enums or their values: they are matched by
    value so this module never imports the dataplane (layering:
    control sits above it).
    """
    return sum(count for verdict, count in counts.items()
               if getattr(verdict, "value", verdict) in _LOSS_VERDICTS)


class SwitchSensor:
    """Windows one switch's verdict counters and queue backlog.

    Wraps an assembled
    :class:`~repro.dataplane.pipeline.AnalogPacketProcessor`: each
    ``sense`` diffs the cumulative verdict counters against the
    previous decision and reads the per-port queues, so a policy sees
    ``{packets, drops, drop_rate, delay_s}`` for the window just
    ended.

    ``delay_s`` is the worst per-port backlog-implied delay,
    ``backlog_bytes * 8 / service_rate_bps``: the delay a packet
    admitted *now* will suffer.  It responds to an actuation within
    the same window, which is what a learning policy must score on.
    The per-port sojourn EWMA of *dequeued* packets — the ground
    truth the paper's 20ms +/- 10ms objective constrains — lags a
    reprogram by a full queue-drain time (packets served now were
    admitted under the old band): a lower-target candidate would be
    punished instantly (drops) but rewarded a window late, biasing a
    gradient estimate against ever tightening the programming.
    """

    def __init__(self, processor) -> None:
        self._processor = processor
        self._last_total = 0
        self._last_drops = 0

    def sense(self, now: float) -> dict:
        counts = self._processor.verdict_counts
        total = sum(counts.values())
        drops = queue_drops(counts)
        window_total = total - self._last_total
        window_drops = drops - self._last_drops
        self._last_total = total
        self._last_drops = drops
        manager = self._processor.traffic_manager
        views = [manager.queue_view(port)
                 for port in range(manager.n_ports)]
        return {
            "packets": window_total,
            "drops": window_drops,
            "drop_rate": (window_drops / window_total
                          if window_total else 0.0),
            "delay_s": max((view.backlog_bytes * 8.0
                            / view.service_rate_bps for view in views),
                           default=0.0),
        }


class AQMActuator:
    """Applies actions to one or more analog AQMs of one switch.

    The action vocabulary mirrors the fabric ops, whose ``retarget``
    likewise reaches every shard's AQMs.  With several AQMs (one per
    egress port) an action is applied to all of them, so a switch —
    like a fabric — never runs mixed programmings.
    Degradation wrappers are unwrapped: actuation always reaches the
    analog table itself.
    """

    def __init__(self, *aqms) -> None:
        if not aqms:
            raise ValueError("need at least one AQM to actuate")
        self.aqms = tuple(getattr(aqm, "analog", aqm) for aqm in aqms)

    def apply(self, action: Action) -> bool:
        if action.kind == "retarget":
            for aqm in self.aqms:
                aqm.retarget(*action.args)
            return True
        if action.kind == "reprogram_intended":
            for aqm in self.aqms:
                aqm.reprogram_intended(*action.args)
            return True
        raise ValueError(f"unknown action kind: {action.kind!r}")
