"""The cognitive network controller (Figure 5, top).

"The splitting of network functions into the digital and analog
domains requires a cognitive network controller.  The controller
programs the memristor-based pCAMs and TCAMs based upon the
requirements of the network functions."

:class:`CognitiveNetworkController` owns a
:class:`~repro.core.compiler.CognitiveCompiler`, registers declared
network functions, compiles the digital/analog split, and exposes the
run-time reprogramming path (``update_pCAM``) to the functions it
placed in the analog domain.

This is the former ``repro.dataplane.controller``, moved up into the
unified control layer.  New here: the controller can own any number
of :class:`~repro.control.loop.ControlLoop` s (intent retargeting,
learned programming sweeps, ...) via :meth:`attach_loop`; its
periodic :meth:`tick` — already driven once per processed chunk as
the switch's ``supervise`` hook — then paces every attached loop on the
same sim clock.  With no loops attached, ``tick`` behaves exactly as
before (pinned by the runtime/fabric golden suites).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.control.loop import ControlLoop
from repro.core.compiler import (
    CognitiveCompiler,
    Domain,
    NetworkFunctionSpec,
    Placement,
)
from repro.core.pcam_cell import PCAMParams
from repro.core.pcam_pipeline import PCAMPipeline
from repro.core.programming import update_pcam

__all__ = ["CognitiveNetworkController", "RegisteredFunction"]


@dataclass
class RegisteredFunction:
    """A network function known to the controller."""

    spec: NetworkFunctionSpec
    #: Called with the assigned domain when the split is compiled;
    #: the function installs itself on the corresponding hardware.
    install: Callable[[Domain], None] | None = None
    domain: Domain | None = None
    #: Analog pipelines the controller may reprogram at run time.
    pipelines: dict[str, PCAMPipeline] = field(default_factory=dict)


class CognitiveNetworkController:
    """Compiles and programs the digital/analog function split."""

    def __init__(self, compiler: CognitiveCompiler | None = None) -> None:
        self.compiler = compiler or CognitiveCompiler()
        self._functions: dict[str, RegisteredFunction] = {}
        self._placement: Placement | None = None
        self._supervised: dict[str, object] = {}
        self._loops: list[ControlLoop] = []
        self._observability = None
        self.reprogram_events = 0

    # ------------------------------------------------------------------
    # Observability (the run-time observation feed of Sec. 5)
    # ------------------------------------------------------------------
    def attach_observability(self, observability) -> None:
        """Give the controller the shared observability hub to poll.

        ``observability`` is a
        :class:`repro.observability.hub.Observability`;
        :class:`~repro.dataplane.pipeline.AnalogPacketProcessor`
        attaches its hub automatically when built with one.
        """
        self._observability = observability

    def poll_metrics(self) -> dict:
        """One snapshot of every observed metric (the adaptation feed).

        This is the "run-time observations" input of the paper's
        cognitive loop: table hit/miss statistics, energy-account
        totals, degradation fallback/retry counts and per-stage
        latency histograms, in one JSON-able mapping.  Raises
        :class:`RuntimeError` when no hub is attached.
        """
        if self._observability is None:
            raise RuntimeError(
                "no observability hub attached; build the processor "
                "with observability=Observability() or call "
                "attach_observability()")
        return self._observability.snapshot()

    # ------------------------------------------------------------------
    # Switch assembly
    # ------------------------------------------------------------------
    def build_switch(self, spec, *, observability=None,
                     aqm_factory=None):
        """Assemble a switch from a declarative spec, owned by self.

        ``spec`` is a :class:`~repro.dataplane.switch.SwitchSpec`;
        the returned
        :class:`~repro.dataplane.pipeline.AnalogPacketProcessor` uses
        this controller (supervision, reprogramming, metric polls) —
        one controller can own several switches.
        """
        from repro.dataplane.switch import build_switch
        return build_switch(spec, controller=self,
                            observability=observability,
                            aqm_factory=aqm_factory)

    # ------------------------------------------------------------------
    # Registration & compilation
    # ------------------------------------------------------------------
    def register(self, spec: NetworkFunctionSpec,
                 install: Callable[[Domain], None] | None = None
                 ) -> RegisteredFunction:
        """Declare a network function to be placed."""
        if spec.name in self._functions:
            raise ValueError(f"function {spec.name!r} already registered")
        registration = RegisteredFunction(spec=spec, install=install)
        self._functions[spec.name] = registration
        return registration

    def compile(self) -> Placement:
        """Run the precision-aware split and install every function."""
        if not self._functions:
            raise ValueError("no functions registered")
        specs = [registration.spec
                 for registration in self._functions.values()]
        placement = self.compiler.place(specs)
        self._placement = placement
        for registration in self._functions.values():
            domain = placement.domain_of(registration.spec.name)
            registration.domain = domain
            if registration.install is not None:
                registration.install(domain)
        return placement

    def domain_of(self, name: str) -> Domain:
        """Placement domain of a named function (after compile())."""
        if self._placement is None:
            raise RuntimeError("compile() has not been run")
        return self._placement.domain_of(name)

    # ------------------------------------------------------------------
    # Run-time reprogramming (update_pCAM path)
    # ------------------------------------------------------------------
    def attach_pipeline(self, function_name: str, pipeline_name: str,
                        pipeline: PCAMPipeline) -> None:
        """Expose an analog pipeline for run-time reprogramming."""
        registration = self._require(function_name)
        registration.pipelines[pipeline_name] = pipeline

    def reprogram(self, function_name: str, pipeline_name: str,
                  stage: str, params: PCAMParams) -> None:
        """update_pCAM: push fresh parameters into a placed pipeline."""
        registration = self._require(function_name)
        if registration.domain is not Domain.ANALOG_PCAM:
            raise ValueError(
                f"{function_name!r} is not placed in the analog domain")
        try:
            pipeline = registration.pipelines[pipeline_name]
        except KeyError:
            raise KeyError(
                f"{function_name!r} has no pipeline {pipeline_name!r}; "
                f"attached: {list(registration.pipelines)}") from None
        update_pcam(pipeline, stage, params)
        self.reprogram_events += 1

    # ------------------------------------------------------------------
    # Graceful-degradation supervision (retry/reprogram backoff)
    # ------------------------------------------------------------------
    def supervise(self, name: str, degrader) -> None:
        """Register a degradable table for controller-driven retries.

        ``degrader`` is anything exposing ``maybe_retry(now) -> bool``
        and ``degraded`` — in practice a
        :class:`repro.robustness.degradation.DegradingAQM`.  The
        controller's periodic :meth:`tick` then owns the
        reprogram-backoff loop instead of leaving it to the data path.
        """
        if name in self._supervised:
            raise ValueError(f"table {name!r} already supervised")
        self._supervised[name] = degrader

    @property
    def supervised(self) -> tuple[str, ...]:
        """Names of every supervised degradable table."""
        return tuple(self._supervised)

    def degraded_tables(self) -> tuple[str, ...]:
        """Supervised tables currently serving from their fallback."""
        return tuple(name for name, degrader in self._supervised.items()
                     if degrader.degraded)

    # ------------------------------------------------------------------
    # Attached control loops (intent retargeting, learned sweeps)
    # ------------------------------------------------------------------
    def attach_loop(self, loop: ControlLoop) -> ControlLoop:
        """Own a control loop: :meth:`tick` will pace it on sim time.

        Returns the loop for chaining.  Loops step *after* the
        degradation retries of the same tick, so a freshly repaired
        table is observed (not actuated around) within the tick.
        """
        self._loops.append(loop)
        return loop

    def tick(self, now: float) -> tuple[str, ...]:
        """Drive the retry/reprogram backoff of every degraded table.

        Each successful retry is an ``update_pCAM`` reprogramming pass
        and counts toward :attr:`reprogram_events`, as does every
        action an attached control loop applies this tick.  Returns
        the names of the tables retried this tick.
        """
        retried = []
        for name, degrader in self._supervised.items():
            if degrader.maybe_retry(now):
                self.reprogram_events += 1
                retried.append(name)
        for loop in self._loops:
            self.reprogram_events += len(loop.step(now))
        return tuple(retried)

    def _require(self, name: str) -> RegisteredFunction:
        try:
            return self._functions[name]
        except KeyError:
            raise KeyError(
                f"unknown function {name!r}; registered: "
                f"{list(self._functions)}") from None

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> list[str]:
        """Human-readable placement report."""
        if self._placement is None:
            return ["<not compiled>"]
        lines = [f"analog error budget: {self._placement.budget.total:.4f} "
                 f"(dominant: {self._placement.budget.dominant_term()})"]
        for registration in self._functions.values():
            name = registration.spec.name
            lines.append(
                f"  {name:<20} -> {registration.domain.value:<12} "
                f"({self._placement.rationale[name]})")
        return lines
