"""The differential test oracle: faulty-analog vs ideal-scalar vs batch.

Three evaluation legs are compared over one probe grid:

1. **ideal-scalar** — the clean reference pipeline evaluated through
   the scalar entry point, probe by probe (the slowest, most-trusted
   leg);
2. **ideal-batch** — the same clean pipeline through
   ``evaluate_batch``; any disagreement with leg 1 beyond float
   round-off is a vectorisation bug, reported separately from device
   degradation;
3. **faulty-analog** — the injected pipeline through its batch path.

The oracle reduces leg 3 − leg 1 into a :class:`DeviationReport`
(match-probability error, PDP bias, worst-case probe) and checks it
against a declared :class:`DegradationEnvelope`.  Campaign code and
the robustness test suites both build on this one comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.core.pcam_pipeline import PCAMPipeline

__all__ = ["DegradationEnvelope", "DeviationReport", "DifferentialOracle",
           "EnvelopeViolation"]

#: Tolerance for the scalar-vs-batch equivalence leg (vectorisation
#: must be a pure re-expression of the scalar reference).
EQUIVALENCE_RTOL = 1e-9


class EnvelopeViolation(AssertionError):
    """Degradation exceeded the declared envelope."""

    def __init__(self, report: "DeviationReport",
                 violations: list[str]) -> None:
        self.report = report
        self.violations = violations
        super().__init__(
            "degradation outside the declared envelope: "
            + "; ".join(violations))


@dataclass(frozen=True)
class DegradationEnvelope:
    """Declared bounds on acceptable degradation under faults.

    All quantities are in match-probability units (the pipeline output
    is a probability, so 1.0 is the largest possible deviation).
    """

    #: Bound on the mean absolute match-probability error.
    max_mean_abs_error: float = 0.05
    #: Bound on the absolute PDP bias (signed mean deviation).
    max_abs_bias: float = 0.02
    #: Bound on the single worst probe's deviation.
    max_abs_error: float = 1.0

    def __post_init__(self) -> None:
        for name in ("max_mean_abs_error", "max_abs_bias",
                     "max_abs_error"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True)
class DeviationReport:
    """Reduced comparison of the faulty leg against the ideal legs."""

    n_probes: int
    #: Mean |faulty - ideal| — the match-probability error.
    mean_abs_error: float
    #: Mean (faulty - ideal) — the PDP bias.
    bias: float
    #: Largest single-probe |faulty - ideal|.
    max_abs_error: float
    #: Root-mean-square deviation.
    rmse: float
    #: Largest |ideal-batch - ideal-scalar| (vectorisation check leg).
    scalar_batch_max_diff: float

    def violations(self, envelope: DegradationEnvelope) -> list[str]:
        """Human-readable list of envelope bounds this report breaks."""
        found = []
        if self.mean_abs_error > envelope.max_mean_abs_error:
            found.append(
                f"mean abs error {self.mean_abs_error:.4f} > "
                f"{envelope.max_mean_abs_error:.4f}")
        if abs(self.bias) > envelope.max_abs_bias:
            found.append(f"|bias| {abs(self.bias):.4f} > "
                         f"{envelope.max_abs_bias:.4f}")
        if self.max_abs_error > envelope.max_abs_error:
            found.append(f"max abs error {self.max_abs_error:.4f} > "
                         f"{envelope.max_abs_error:.4f}")
        return found

    def within(self, envelope: DegradationEnvelope) -> bool:
        """True when every envelope bound holds."""
        return not self.violations(envelope)


class DifferentialOracle:
    """Compares a (possibly faulted) pipeline against its clean self.

    Parameters
    ----------
    reference:
        The clean pipeline.  Use :meth:`from_intended` to derive it
        from a faulted pipeline's remembered intent.
    envelope:
        Default envelope for :meth:`check`.
    """

    def __init__(self, reference: PCAMPipeline,
                 envelope: DegradationEnvelope | None = None) -> None:
        self.reference = reference
        self.envelope = envelope or DegradationEnvelope()

    @classmethod
    def from_intended(cls, pipeline: PCAMPipeline,
                      envelope: DegradationEnvelope | None = None
                      ) -> "DifferentialOracle":
        """Build the clean reference with
        :meth:`~repro.core.pcam_pipeline.PCAMPipeline.clone_ideal`."""
        return cls(pipeline.clone_ideal(), envelope)

    def compare(self, faulty: PCAMPipeline,
                probes: Mapping[str, np.ndarray]) -> DeviationReport:
        """Run all three legs over the probe grid and reduce."""
        ideal_batch = self.reference.evaluate_batch(probes)
        n = int(ideal_batch.shape[0])
        columns = {name: np.broadcast_to(
            np.atleast_1d(np.asarray(probes[name], dtype=float)), (n,))
            for name in self.reference.stage_names}
        ideal_scalar = np.array([
            self.reference.evaluate(
                {name: float(columns[name][i]) for name in columns})
            for i in range(n)])
        scalar_batch_max_diff = float(
            np.max(np.abs(ideal_batch - ideal_scalar), initial=0.0))
        if not np.allclose(ideal_batch, ideal_scalar,
                           rtol=EQUIVALENCE_RTOL, atol=0.0):
            raise AssertionError(
                f"batch evaluation diverged from the scalar reference "
                f"by {scalar_batch_max_diff:.3e} — vectorisation bug, "
                f"not device degradation")
        faulty_batch = faulty.evaluate_batch(probes)
        deviation = faulty_batch - ideal_scalar
        return DeviationReport(
            n_probes=n,
            mean_abs_error=float(np.mean(np.abs(deviation))),
            bias=float(np.mean(deviation)),
            max_abs_error=float(np.max(np.abs(deviation), initial=0.0)),
            rmse=float(np.sqrt(np.mean(deviation ** 2))),
            scalar_batch_max_diff=scalar_batch_max_diff)

    def check(self, faulty: PCAMPipeline,
              probes: Mapping[str, np.ndarray],
              envelope: DegradationEnvelope | None = None
              ) -> DeviationReport:
        """:meth:`compare`, then assert the envelope holds.

        Raises :class:`EnvelopeViolation` carrying the report when the
        measured degradation exceeds the declared bounds.
        """
        envelope = envelope or self.envelope
        report = self.compare(faulty, probes)
        violations = report.violations(envelope)
        if violations:
            raise EnvelopeViolation(report, violations)
        return report

    def probe_grid(self, n_probes: int, rng: np.random.Generator,
                   margin: float = 0.25) -> dict[str, np.ndarray]:
        """Seeded probe features covering each stage's active region.

        Samples uniformly over ``[M1, M4]`` widened by ``margin`` of
        its span on each side, so both deterministic plateaus, both
        ramps and the surrounding mismatch regions are exercised.
        """
        if n_probes < 1:
            raise ValueError(f"need at least one probe: {n_probes!r}")
        probes = {}
        for name in self.reference.stage_names:
            p = self.reference.stage(name).params
            span = max(p.m4 - p.m1, 1e-6)
            probes[name] = rng.uniform(p.m1 - margin * span,
                                       p.m4 + margin * span, n_probes)
        return probes
