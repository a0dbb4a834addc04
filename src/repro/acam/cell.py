"""The aCAM interval cell: a conductance-bounded analog window.

Li et al.'s 6T2M analog CAM cell stores an *interval* as two memristor
conductances: the low-bound transistor conducts while the search
voltage is above the lower threshold, the high-bound one while it is
below the upper, and the match line stays high only when the input
falls between them.  This module realises the same abstraction on top
of the repo's pCAM transfer function:

* the deterministic-match window ``[M2, M3]`` is the stored interval;
* an unbounded side ("any value above lo") maps to a sentinel far
  outside every feature scale, exactly like a TCAM wildcard bit;
* an analog *margin* widens ``[M1, M4]`` beyond the window so
  near-miss inputs produce a graded sub-1.0 response instead of a
  hard zero (the paper's RQ1 partial match), with *sharpness*
  steepening the skirt.

Ramp responses are strictly below ``pmax``, so a deterministic match
is only ever produced *inside* the stored interval — the property the
one-shot decision-tree equivalence proof rests on.

An interval is a value, not a cell: the bank stores
:meth:`ACAMInterval.to_pcam_params` in a plain
:class:`~repro.core.pcam_cell.PCAMCell`, whose ``intended_params``
remember the interval through any fault.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.pcam_cell import PCAMParams

__all__ = ["ACAMInterval", "UNBOUNDED", "check_skirt"]

#: Sentinel magnitude for an unbounded interval side.  Far outside any
#: feature scale this repo produces, yet finite so the pCAM transfer
#: function never sees an inf/nan.
UNBOUNDED = 1e30

#: Relative width of the hairline ramp a zero-margin interval keeps on
#: each finite side.  The pCAM transfer function reads ``x >= m4`` (and
#: ``x <= m1``) as mismatch, so a genuinely zero-width ramp would make
#: the stored window *open* at its bounds; a hairline ramp keeps the
#: closed-interval semantics (``x == hi`` matches deterministically)
#: that the decision-tree equivalence proof needs, while anything
#: measurably outside the window still responds strictly below pmax.
_EDGE_EPS = 1e-9


def check_skirt(margin: float, sharpness: float) -> None:
    """Reject a skirt the pCAM ramp cannot realise.

    ``margin`` must be finite and >= 0 and ``sharpness`` finite and
    > 0: an infinite margin turns the ramp into inf/inf (NaN
    responses), a NaN slips past both comparisons, and an infinite
    sharpness silently zeroes the skirt.
    """
    if not (np.isfinite(margin) and margin >= 0):
        raise ValueError(f"margin must be finite and >= 0: {margin!r}")
    if not (np.isfinite(sharpness) and sharpness > 0):
        raise ValueError(
            f"sharpness must be finite and > 0: {sharpness!r}")


@dataclass(frozen=True)
class ACAMInterval:
    """One stored analog interval, optionally unbounded on a side.

    ``None`` bounds are wildcards ("don't care" below/above), the
    aCAM generalisation of a TCAM X bit.  ``margin`` extends an
    analog skirt beyond each *finite* bound, in feature units;
    ``sharpness`` divides the skirt width, so higher sharpness means
    a steeper ramp.  ``margin=0`` degenerates to a purely digital
    window.
    """

    lo: float | None = None
    hi: float | None = None
    margin: float = 0.0
    sharpness: float = 1.0

    def __post_init__(self) -> None:
        for name in ("lo", "hi"):
            bound = getattr(self, name)
            if bound is not None and not np.isfinite(bound):
                raise ValueError(
                    f"{name} must be finite or None: {bound!r}")
        if self.lo is not None and self.hi is not None \
                and self.lo > self.hi:
            raise ValueError(
                f"need lo <= hi: {self.lo!r} > {self.hi!r}")
        check_skirt(self.margin, self.sharpness)

    @classmethod
    def wildcard(cls) -> "ACAMInterval":
        """An interval matching every input (both sides unbounded)."""
        return cls(lo=None, hi=None)

    @property
    def skirt(self) -> float:
        """Width of the analog ramp beyond each finite bound."""
        return self.margin / self.sharpness

    def to_pcam_params(self) -> PCAMParams:
        """The pCAM programming realising this interval.

        The deterministic window ``[M2, M3]`` is the interval itself
        (sentinels standing in for unbounded sides); the skirt only
        extends beyond *finite* bounds — a wildcard side has nothing
        to fade towards — and a zero margin degrades to the hairline
        ramp of :data:`_EDGE_EPS` so the window stays closed.
        """
        m2 = -UNBOUNDED if self.lo is None else float(self.lo)
        m3 = UNBOUNDED if self.hi is None else float(self.hi)

        def skirt_for(bound: float) -> float:
            if self.skirt > 0.0:
                return self.skirt
            return _EDGE_EPS * max(1.0, abs(bound))

        m1 = m2 if self.lo is None else m2 - skirt_for(m2)
        m4 = m3 if self.hi is None else m3 + skirt_for(m3)
        return PCAMParams.canonical(m1=m1, m2=m2, m3=m3, m4=m4)

    def contains(self, values: np.ndarray) -> np.ndarray:
        """Digital membership test (closed on both finite bounds)."""
        x = np.asarray(values, dtype=float)
        inside = np.ones(x.shape, dtype=bool)
        if self.lo is not None:
            inside &= x >= self.lo
        if self.hi is not None:
            inside &= x <= self.hi
        return inside
