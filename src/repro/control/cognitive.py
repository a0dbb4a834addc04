"""The cognitive network controller (Figure 5, top).

"The splitting of network functions into the digital and analog
domains requires a cognitive network controller.  The controller
programs the memristor-based pCAMs and TCAMs based upon the
requirements of the network functions."

:class:`CognitiveNetworkController` owns a
:class:`~repro.core.compiler.CognitiveCompiler`, registers declared
network functions and compiles the digital/analog split.  At run time
its :meth:`~CognitiveNetworkController.tick` — driven once per
processed chunk as a supervised switch's ``supervise`` hook — is the
one place the analog tables are reprogrammed (``update_pCAM``): it
advances the retry backoff of every supervised degradable table, then
paces every attached :class:`~repro.control.loop.ControlLoop` on the
same sim clock.  With no tables supervised and no loops attached,
``tick`` does nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.control.loop import ControlLoop
from repro.core.compiler import (
    CognitiveCompiler,
    Domain,
    NetworkFunctionSpec,
    Placement,
)

__all__ = ["CognitiveNetworkController", "RegisteredFunction"]


@dataclass
class RegisteredFunction:
    """A network function known to the controller."""

    spec: NetworkFunctionSpec
    #: Called with the assigned domain when the split is compiled;
    #: the function installs itself on the corresponding hardware.
    install: Callable[[Domain], None] | None = None
    domain: Domain | None = None


class CognitiveNetworkController:
    """Compiles and programs the digital/analog function split."""

    def __init__(self, compiler: CognitiveCompiler | None = None) -> None:
        self.compiler = compiler or CognitiveCompiler()
        self._functions: dict[str, RegisteredFunction] = {}
        self._placement: Placement | None = None
        self._supervised: dict[str, object] = {}
        self._loops: list[ControlLoop] = []
        self.reprogram_events = 0

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

    def degraded_tables(self) -> tuple[str, ...]:
        """Supervised tables currently serving from their fallback."""
        return tuple(name for name, degrader in self._supervised.items()
                     if degrader.degraded)

    # ------------------------------------------------------------------
    # Attached control loops (learned programming sweeps)
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
