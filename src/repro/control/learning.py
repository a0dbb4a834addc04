"""Gradient-free learning of pCAM programmings (SPSA).

The paper's conclusion argues the analog dataplane enables
*self-learning* line-rate functions: the controller observes the
network and reprograms conductance windows online.  This module
provides the decision half of that loop, :class:`SPSAPolicy`: a
simultaneous-perturbation stochastic approximation over the AQM
programming ``theta = (target_delay_s, max_deviation_s)`` that
perturbs the programming up and down along one random direction,
measures a traffic window under each, and steps along the estimated
descent direction.

It optimises in *log* space (delay targets span decades; a
multiplicative step is scale-free), scores windows against a
:class:`DelayEnvelope` (the paper's 20ms +/- 10ms objective), and
draws every random variate from the counter-based SplitMix64 streams
of :mod:`repro.simnet.workloads` — a variate is a pure function of
``(seed, stream, index)``, so a learning sweep is reproducible and
invariant to traffic chunking (indices count *decisions*, never
packets or chunks).

:class:`EnvelopeGate` is the safety interlock: a wrapper around the
switch's :class:`~repro.control.loop.AQMActuator` that refuses candidate
reprograms while the hardware is degraded, probes every reprogrammed
pipeline against the robustness
:class:`~repro.robustness.degradation.ShadowOracle`, and rolls back
any write that lands outside the degradation envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.control.loop import Action, AQMActuator
from repro.core.pcam_pipeline import PipelineStack
from repro.simnet.workloads import uniforms

__all__ = [
    "DelayEnvelope",
    "EnvelopeGate",
    "ProgramBounds",
    "SPSAPolicy",
    "STREAM_SPSA_PERTURB",
]

#: Counter-based RNG stream of the SPSA perturbations (disjoint from
#: the workload streams by convention: scenarios use 1..12).
STREAM_SPSA_PERTURB = 21


@dataclass(frozen=True)
class DelayEnvelope:
    """The latency objective a learned programming is scored against.

    Defaults to the paper's end-to-end objective: mean queueing delay
    of 20ms with +/- 10ms tolerance.
    """

    target_s: float = 0.020
    halfwidth_s: float = 0.010
    #: Score weight of the window's AQM drop fraction.
    drop_weight: float = 0.25
    #: A window advances a learning episode only when it shows real
    #: congestion: worst delay above the envelope target, or AQM
    #: drop activity above this floor (the over-dropping signature of
    #: a target programmed too low, whose delay sits *below* target).
    signal_drop_rate: float = 0.02

    def __post_init__(self) -> None:
        if not 0.0 < self.halfwidth_s < self.target_s:
            raise ValueError(
                f"need 0 < halfwidth < target: "
                f"{self.halfwidth_s}, {self.target_s}")

    def within(self, delay_s: float) -> bool:
        """Is a measured delay inside the envelope?"""
        return abs(delay_s - self.target_s) <= self.halfwidth_s

    def has_signal(self, observation: dict) -> bool:
        """Does a window carry enough congestion to be scored?

        Benign traffic says nothing about a candidate programming;
        advancing an episode on it would random-walk the optimiser —
        and windows hovering just above the target are burst noise
        the AQM band never engages, so they are equally
        uninformative.  An episode therefore requires delay beyond
        the envelope's *upper edge* (programming too loose) or AQM
        drop activity (programming doing work — possibly too tight).
        A converged loop in mild traffic skips every window, leaving
        the live programming completely undithered until congestion
        returns.  Skipped windows consume no RNG draws, which is
        what keeps the sweep chunk-size invariant.
        """
        if observation.get("packets", 0) <= 0:
            return False
        return (observation.get("delay_s", 0.0)
                > self.target_s + self.halfwidth_s
                or observation.get("drop_rate", 0.0)
                >= self.signal_drop_rate)

    def score(self, observation: dict) -> float:
        """Lower is better; 0 when the window sits on the target.

        Log-ratio loss on delay (scale-free: 2x too slow scores like
        2x too fast) plus a small loss-rate penalty so the optimiser
        does not buy latency with drops.
        """
        delay = max(observation.get("delay_s", 0.0), 1e-9)
        return (abs(math.log(delay / self.target_s))
                + self.drop_weight * observation.get("drop_rate", 0.0))

    @property
    def edge_score(self) -> float:
        """The delay-only score of a window sitting on the envelope
        edge — the natural 'converged enough' threshold for a sweep."""
        return math.log((self.target_s + self.halfwidth_s)
                        / self.target_s)


@dataclass(frozen=True)
class ProgramBounds:
    """Clamp box for learned programmings, in physical units."""

    min_target_s: float = 0.002
    max_target_s: float = 0.200
    #: Band halfwidth as a fraction of the target.  The floor keeps a
    #: candidate out of the bang-bang regime: a drop-probability ramp
    #: much narrower than the target degenerates into a relay
    #: controller that limit-cycles the queue around the threshold
    #: (and a physical pCAM interval needs resolvable width anyway).
    min_rel_deviation: float = 0.25
    max_rel_deviation: float = 0.90

    def __post_init__(self) -> None:
        if not 0.0 < self.min_target_s < self.max_target_s:
            raise ValueError("need 0 < min_target < max_target")
        if not 0.0 < self.min_rel_deviation <= self.max_rel_deviation:
            raise ValueError("need 0 < min_rel <= max_rel deviation")

    def clamp_log(self, theta: np.ndarray) -> np.ndarray:
        """Clamp a log-space ``(ln target, ln rel_dev)`` vector."""
        lo = np.log([self.min_target_s, self.min_rel_deviation])
        hi = np.log([self.max_target_s, self.max_rel_deviation])
        return np.clip(theta, lo, hi)


def _programming_of(theta: np.ndarray) -> tuple[float, float]:
    """Physical ``(target_delay_s, max_deviation_s)`` of a log vector."""
    target = float(math.exp(theta[0]))
    return target, target * float(math.exp(theta[1]))


class SPSAPolicy:
    """Simultaneous-perturbation descent over the programming.

    A *decision* with congestion signal closes one measurement
    episode: the window just sensed ran under the candidate deployed
    at the previous decision, so its score is attributed to that
    candidate before the next one is deployed.  Windows without
    signal neither score nor deploy — and draw nothing from the RNG
    stream, so the draw index is a pure function of the episode
    count.

    One iteration spans four measured episodes deployed in the
    trend-cancelling order ``+, -, -, +``: the double difference
    ``(plus1 + plus2) - (minus1 - minus2 ...)`` — i.e. the mean plus
    score minus the mean minus score — is exactly zero for any score
    drift *linear in episode index*, which is what live traffic
    injects (a congestion peak ramping up or draining between two
    consecutive measurements dwarfs the candidate effect; a naive
    ``+, -`` difference measures the ramp, not the programming, and
    random-walks the sweep).  The perturbation direction ``delta``
    is Rademacher +/-1 per coordinate, drawn counter-based per
    iteration, so draw indices depend only on the iteration count.

    Gains never anneal to zero — traffic is non-stationary, so the
    optimiser must keep tracking — but they do adapt trust-region
    style: once an iteration's mean measured score falls inside the
    envelope (below :attr:`DelayEnvelope.edge_score`) the gain
    multiplier shrinks, so a converged sweep stops dithering the live
    programming by full-size perturbations; when the regime shifts
    and scores degrade, the gain expands back toward 1.  The
    adaptation depends only on measured scores at decision points,
    so it is as chunk-size invariant as the rest of the sweep.
    ``best`` is refreshed with each iteration's mean measured score,
    attributed to the centre the iteration perturbed around.

    Steps are *blocked* (classic blocking SPSA): if an iteration's
    mean score is worse than the previous iteration's by more than
    ``block_margin``, the step that produced the current centre is
    reverted instead of compounded — a single unlucky double
    difference during a ramp can otherwise fling the programming and
    leave the sweep relearning from scratch.  A blocked step clears
    the comparison baseline, so a genuine regime shift (every centre
    suddenly scores worse) costs exactly one reverted iteration
    before the sweep moves again.
    """

    #: The objective every window is scored against.
    envelope = DelayEnvelope()
    #: The box every deployed programming is projected into.
    bounds = ProgramBounds()
    #: Log-space step and perturbation sizes at full gain.
    step = 1.0
    perturbation = 0.18
    #: Trust-region gain adaptation: multiply by ``gain_shrink`` (down
    #: to ``gain_floor``) after an iteration inside the envelope, by
    #: ``gain_expand`` (up to 1) after one scoring above
    #: ``expand_score``.
    gain_shrink = 0.6
    gain_expand = 1.3
    gain_floor = 0.5
    #: Hysteresis: shrink below the envelope edge, expand only
    #: beyond twice it.  Congestion-onset transients under a
    #: well-converged programming land between the two and leave
    #: the gain alone — only a genuinely stale programming (delay
    #: parked far outside the envelope) re-opens the trust region.
    expand_score = envelope.edge_score + math.log(2.0)
    #: An iteration scoring this much worse than the previous one
    #: reverts the step into its centre.
    block_margin = math.log(2.0)

    #: Deployment order within one iteration (see class docstring).
    _SCHEDULE = ("plus", "minus", "minus", "plus")

    def __init__(self, seed: int, theta0: np.ndarray) -> None:
        self.seed = int(seed)
        self.theta = self.bounds.clamp_log(np.asarray(theta0, dtype=float))
        self.episodes = 0
        self.best_theta = self.theta.copy()
        self.best_score = math.inf
        self.gain = 1.0
        self.iteration = 0
        #: Number of iterations whose step was reverted by blocking.
        self.blocked = 0
        #: Previous iteration's (centre, mean score) — the blocking
        #: baseline; None right after a block or before iteration 1.
        self._prev: tuple[np.ndarray, float] | None = None
        self._delta: np.ndarray | None = None
        #: Sign currently deployed ("plus"/"minus"); None until the
        #: first deployment — the first signalful window ran under
        #: the unperturbed starting programming.
        self._deployed: str | None = None
        self._scores: list[tuple[str, float]] = []

    @classmethod
    def for_aqm(cls, aqm, seed: int) -> "SPSAPolicy":
        """Seed the sweep from an AQM's current programming."""
        analog = getattr(aqm, "analog", aqm)
        rel = analog.max_deviation_s / analog.target_delay_s
        return cls(seed, np.log([analog.target_delay_s, rel]))

    @property
    def programming(self) -> tuple[float, float]:
        """The current centre ``(target_delay_s, max_deviation_s)``."""
        return _programming_of(self.theta)

    @property
    def best_programming(self) -> tuple[float, float]:
        """The best-scoring programming measured so far."""
        return _programming_of(self.best_theta)

    def _draw_delta(self) -> np.ndarray:
        index = np.arange(2 * self.iteration, 2 * self.iteration + 2,
                          dtype=np.int64)
        draws = uniforms(self.seed, STREAM_SPSA_PERTURB, index)
        return np.where(draws < 0.5, 1.0, -1.0)

    def _close_iteration(self) -> None:
        plus = [s for label, s in self._scores if label == "plus"]
        minus = [s for label, s in self._scores if label == "minus"]
        # Clip the scalar difference quotient to +/-1: one iteration
        # never moves theta further than `step * gain` in log space,
        # however violent the score difference (a candidate crossing
        # into a drop storm can make it arbitrarily large).
        scalar = ((sum(plus) / len(plus) - sum(minus) / len(minus))
                  / (2.0 * self.perturbation * self.gain))
        scalar = max(-1.0, min(1.0, scalar))
        mean_score = (sum(s for _, s in self._scores)
                      / len(self._scores))
        if mean_score < self.best_score:
            self.best_score = mean_score
            self.best_theta = self.theta.copy()
        if (self._prev is not None
                and mean_score > self._prev[1] + self.block_margin):
            # Blocking: the step into this centre made things
            # materially worse — revert it.  Clearing the baseline
            # lets the next iteration step unconditionally, so a
            # regime shift cannot wedge the sweep in place.
            self.theta = self._prev[0]
            self._prev = None
            self.blocked += 1
        else:
            self._prev = (self.theta.copy(), mean_score)
            self.theta = self.bounds.clamp_log(
                self.theta
                - self.step * self.gain * scalar * self._delta)
        if mean_score < self.envelope.edge_score:
            self.gain = max(self.gain * self.gain_shrink,
                            self.gain_floor)
        elif mean_score > self.expand_score:
            self.gain = min(self.gain * self.gain_expand, 1.0)
        self.iteration += 1
        self._delta = None
        self._scores = []

    def decide(self, now: float, observation: dict) -> tuple[Action, ...]:
        if not self.envelope.has_signal(observation):
            return ()
        self.episodes += 1
        if self._deployed is not None:
            # The window just sensed ran under the candidate deployed
            # at the previous signalful decision.
            self._scores.append(
                (self._deployed, self.envelope.score(observation)))
            if len(self._scores) == len(self._SCHEDULE):
                self._close_iteration()
        if self._delta is None:
            self._delta = self._draw_delta()
        self._deployed = self._SCHEDULE[len(self._scores)]
        sign = 1.0 if self._deployed == "plus" else -1.0
        candidate = (self.theta
                     + sign * self.perturbation * self.gain * self._delta)
        # Deploy the projection onto the bounds: a perturbed candidate
        # may sit outside them, and the physical table only accepts
        # deviation < target.
        return (Action("retarget",
                       _programming_of(self.bounds.clamp_log(candidate))),)


class EnvelopeGate:
    """The actuator interlock: no learned reprogram escapes the envelope.

    Wraps an :class:`~repro.control.loop.AQMActuator` and supervises a
    set of analog AQMs (degradation wrappers are unwrapped for
    probing but consulted for their ``degraded`` flag):

    1. **pre-check** — a ``retarget`` is refused outright while any
       supervised table serves from its digital fallback, or while
       the live pipelines already deviate from their shadow beyond
       ``pdp_envelope`` (reprogramming drifted hardware would learn
       the fault, not the traffic);
    2. **apply** — the inner actuator commits;
    3. **post-probe** — every pipeline is probed against a fresh
       shadow oracle built from the *new* intent; a write that lands
       outside the envelope is rolled back to the pre-apply
       programming and counted in :attr:`violations`.

    Both probes evaluate every supervised pipeline's probe grid in one
    stacked kernel call, and their shadow twins in another
    (:meth:`deviations`).  They read the pipelines directly, bypassing
    the AQM's ``output_monitor`` hook, so gating never perturbs the
    degradation wrapper's own check/trip accounting.  A stacked probe
    evaluates every port even when an earlier one already fails, so
    cell evaluation counters can advance where a port-by-port loop
    would have stopped; verdicts and counters of the gate do not move.
    """

    #: Worst tolerated |analog - shadow| PDP over the probe grid.
    pdp_envelope = 0.10
    #: Probe points per pipeline stage, spanning ``m1..m4``.
    probe_points = 17

    def __init__(self, actuator: AQMActuator, aqms) -> None:
        self.inner = actuator
        self.aqms = list(aqms)
        self.checks = 0
        self.rejections = 0
        self.violations = 0
        self._oracles: dict[int, object] = {}
        self._stacks: dict[str, PipelineStack] = {}

    # -- probing -------------------------------------------------------
    def _oracle_for(self, pipeline):
        # Deferred import: robustness sits below the control layer but
        # pulls in dataplane telemetry, which must not load while the
        # control package itself is still initialising.
        from repro.robustness.degradation import ShadowOracle
        oracle = self._oracles.get(id(pipeline))
        if oracle is None:
            oracle = self._oracles[id(pipeline)] = ShadowOracle(pipeline)
        return oracle

    def _stack(self, side: str, pipelines: tuple) -> PipelineStack:
        stack = self._stacks.get(side)
        if stack is None or stack.pipelines != pipelines:
            stack = self._stacks[side] = PipelineStack(pipelines)
        return stack

    def _probe_grid(self, pipeline) -> list[np.ndarray]:
        grid = []
        for name in pipeline.stage_names:
            stage = pipeline.stage(name)
            params = getattr(stage, "intended_params", stage.params)
            grid.append(np.linspace(params.m1, params.m4,
                                    self.probe_points))
        return grid

    def deviations(self, analog_aqms) -> np.ndarray:
        """Worst |analog - shadow| PDP of each AQM over its probe grid.

        Every analog pipeline is probed in one stacked kernel call
        (:meth:`~repro.core.pcam_pipeline.PipelineStack.evaluate`) and
        every shadow twin in another.
        """
        pipelines = tuple(aqm.pipeline for aqm in analog_aqms)
        if not pipelines:
            return np.zeros(0)
        twins = tuple(self._oracle_for(pipeline).twin()
                      for pipeline in pipelines)
        grid = np.array([row for pipeline in pipelines
                         for row in self._probe_grid(pipeline)])
        outputs = self._stack("analog", pipelines).evaluate(grid)
        shadow = self._stack("shadow", twins).evaluate(grid)
        return np.max(np.abs(outputs - shadow), axis=1, initial=0.0)

    def deviation(self, analog_aqm) -> float:
        """Worst |analog - shadow| PDP over the probe grid."""
        return float(self.deviations([analog_aqm])[0])

    def _analogs(self) -> list:
        return [getattr(aqm, "analog", aqm) for aqm in self.aqms]

    def healthy(self) -> bool:
        """All supervised tables analog and within the envelope?"""
        self.checks += 1
        if any(getattr(aqm, "degraded", False) for aqm in self.aqms):
            return False
        return not np.any(self.deviations(self._analogs())
                          > self.pdp_envelope)

    # -- the actuator surface ------------------------------------------
    def apply(self, action: Action) -> bool:
        if action.kind != "retarget":
            # Repairs (reprogram_intended) and table ops pass through:
            # the gate protects *candidate* programmings only.
            return self.inner.apply(action)
        if not self.healthy():
            self.rejections += 1
            return False
        analogs = self._analogs()
        rollback = [(analog.target_delay_s, analog.max_deviation_s)
                    for analog in analogs]
        if not self.inner.apply(action):
            return False
        over = (self.deviations(analogs) > self.pdp_envelope).nonzero()[0]
        if len(over):
            self.violations += 1
            self.inner.apply(Action("retarget", rollback[over[0]]))
            return False
        return True
