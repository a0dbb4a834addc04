"""The pCAM cell: a programmable five-region analog match function.

This is the paper's central abstraction (Figure 4a and the ``pCAM()``
pseudocode of Sec. 5).  A cell is programmed with eight parameters::

    prog_pCAM(M1, M2, M3, M4, Sa, Sb, pmax, pmin)

which carve the input axis into five regions:

    input <= M1          -> pmin   (deterministic mismatch)
    M1 < input < M2      -> Sa-sloped ramp (probabilistic match)
    M2 <= input <= M3    -> pmax   (deterministic match)
    M3 < input < M4      -> Sb-sloped ramp (probabilistic match)
    input >= M4          -> pmin   (deterministic mismatch)

The ramp intercepts follow the paper's ``pCAM()`` function verbatim:

    output = Sb*input + (M4*pmax - M3*pmin) / (M4 - M3)   # M3 < x < M4
    output = Sa*input + (M2*pmin - M1*pmax) / (M2 - M1)   # M1 < x < M2

With the *canonical* slopes ``Sa = (pmax-pmin)/(M2-M1)`` and
``Sb = (pmin-pmax)/(M4-M3)`` the response is continuous; programming
other slopes is allowed (the parameters are independent in the paper's
abstraction) and the physical output is clipped to the [pmin, pmax]
rails of the sensing circuit.

One kernel evaluates that function for every caller.  Each cell
caches its row of a constants matrix (thresholds, slopes, rails, the
two precomputed ramp intercepts and the clip rails), and
:class:`CellStack` evaluates the rows of many cells — the stages of a
pipeline, the cells of every stored word — in one stacked NumPy pass.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "CellStack",
    "MatchRegion",
    "PCAMParams",
    "PCAMCell",
    "prog_pcam",
]


class MatchRegion(enum.Enum):
    """Which of the five programmed regions an input falls into."""

    MISMATCH_LOW = "mismatch_low"
    PROBABLE_RISING = "probable_rising"
    MATCH = "match"
    PROBABLE_FALLING = "probable_falling"
    MISMATCH_HIGH = "mismatch_high"

    @property
    def deterministic(self) -> bool:
        """True for the digital-compatible regions (logic 0 or 1)."""
        return self in (MatchRegion.MISMATCH_LOW, MatchRegion.MATCH,
                        MatchRegion.MISMATCH_HIGH)


@dataclass(frozen=True)
class PCAMParams:
    """The eight programmable parameters of one pCAM cell.

    Invariants: ``m1 <= m2 <= m3 <= m4`` and ``pmin <= pmax``.  Outputs
    are probabilities, so ``0 <= pmin`` and ``pmax <= 1``.

    Degenerate programmings are legal: ``m1 == m2`` or ``m3 == m4``
    collapses the corresponding probabilistic ramp to a zero-width
    step (the region is empty, no ramp is ever evaluated), and
    ``pmin == pmax`` pins the cell to a constant output.
    """

    m1: float
    m2: float
    m3: float
    m4: float
    sa: float
    sb: float
    pmax: float = 1.0
    pmin: float = 0.0

    def __post_init__(self) -> None:
        if not (self.m1 <= self.m2 <= self.m3 <= self.m4):
            raise ValueError(
                f"thresholds must satisfy M1 <= M2 <= M3 <= M4: "
                f"{self.m1}, {self.m2}, {self.m3}, {self.m4}")
        if not self.pmin <= self.pmax:
            raise ValueError(
                f"pmin must not exceed pmax: {self.pmin}, {self.pmax}")
        if self.pmin < 0.0 or self.pmax > 1.0:
            raise ValueError(
                f"probabilities must lie in [0, 1]: "
                f"{self.pmin}, {self.pmax}")

    @classmethod
    def canonical(cls, m1: float, m2: float, m3: float, m4: float,
                  pmax: float = 1.0, pmin: float = 0.0) -> "PCAMParams":
        """Parameters with the continuity-preserving slopes.

        A zero-width ramp has no interior points, so its slope is
        immaterial; 0.0 is used instead of dividing by zero.
        """
        sa = (pmax - pmin) / (m2 - m1) if m2 > m1 else 0.0
        sb = (pmin - pmax) / (m4 - m3) if m4 > m3 else 0.0
        return cls(m1=m1, m2=m2, m3=m3, m4=m4, sa=sa, sb=sb,
                   pmax=pmax, pmin=pmin)

    @property
    def canonical_sa(self) -> float:
        """The rising slope that makes the response continuous."""
        if self.m2 <= self.m1:
            return 0.0
        return (self.pmax - self.pmin) / (self.m2 - self.m1)

    @property
    def canonical_sb(self) -> float:
        """The falling slope that makes the response continuous."""
        if self.m4 <= self.m3:
            return 0.0
        return (self.pmin - self.pmax) / (self.m4 - self.m3)

    @property
    def is_continuous(self) -> bool:
        """True when the programmed slopes equal the canonical ones."""
        return (np.isclose(self.sa, self.canonical_sa)
                and np.isclose(self.sb, self.canonical_sb))

    @property
    def match_window(self) -> tuple[float, float]:
        """The deterministic-match interval [M2, M3]."""
        return self.m2, self.m3

    @property
    def support(self) -> tuple[float, float]:
        """The interval outside which the output is pinned to pmin."""
        return self.m1, self.m4

    def shifted(self, delta: float) -> "PCAMParams":
        """All four thresholds translated by ``delta`` (slopes kept)."""
        return replace(self, m1=self.m1 + delta, m2=self.m2 + delta,
                       m3=self.m3 + delta, m4=self.m4 + delta)

    def widened(self, factor: float) -> "PCAMParams":
        """Thresholds scaled about the window centre by ``factor``.

        The AQM controller uses this to relax or tighten a stage's
        acceptance window at run time (``update_pCAM``).
        """
        if factor <= 0:
            raise ValueError(f"factor must be positive: {factor!r}")
        centre = 0.5 * (self.m2 + self.m3)
        new = {name: centre + (getattr(self, name) - centre) * factor
               for name in ("m1", "m2", "m3", "m4")}
        return PCAMParams.canonical(pmax=self.pmax, pmin=self.pmin, **new)


def prog_pcam(m1: float, m2: float, m3: float, m4: float,
              sa: float | None = None, sb: float | None = None,
              pmax: float = 1.0, pmin: float = 0.0) -> PCAMParams:
    """The paper's ``prog_pCAM()`` programming abstraction.

    Omitted slopes default to the canonical (continuous) values, which
    is what the controller derives when the programmer specifies only
    an I/O response (Sec. 5, "It's possible to specify the I/O
    response, and controller can map it to prog_pCAM()").
    """
    if sa is None or sb is None:
        canonical = PCAMParams.canonical(m1, m2, m3, m4, pmax=pmax,
                                         pmin=pmin)
        sa = canonical.sa if sa is None else sa
        sb = canonical.sb if sb is None else sb
    return PCAMParams(m1=m1, m2=m2, m3=m3, m4=m4, sa=sa, sb=sb,
                      pmax=pmax, pmin=pmin)


class PCAMCell:
    """An ideal (circuit-level) pCAM cell.

    Evaluates the paper's five-region transfer function.  The
    device-realised counterpart with memristor noise lives in
    :mod:`repro.core.device_cell`; this class is the functional
    reference the calibration measures against.

    Parameters
    ----------
    params:
        The eight programmable parameters.
    clip_to_rails:
        Clip outputs into [pmin, pmax].  The physical sensing circuit
        cannot exceed its rails; disable only to inspect the raw
        un-clipped pseudocode response.
    nonlinearity:
        ``"linear"`` evaluates the paper's piecewise-linear ramps.
        ``"sigmoid"`` and ``"gaussian"`` realise the *future work*
        extension (Sec. 8: "modeling of non-linear match functions")
        by reshaping the probabilistic ramps; both keep the
        deterministic regions intact and require canonical slopes.
    """

    _NONLINEARITIES = ("linear", "sigmoid", "gaussian")

    def __init__(self, params: PCAMParams, *, clip_to_rails: bool = True,
                 nonlinearity: str = "linear") -> None:
        if nonlinearity not in self._NONLINEARITIES:
            raise ValueError(
                f"nonlinearity must be one of {self._NONLINEARITIES}: "
                f"{nonlinearity!r}")
        if nonlinearity != "linear" and not params.is_continuous:
            raise ValueError(
                "non-linear ramp shapes require canonical slopes")
        self.params = params
        self.clip_to_rails = clip_to_rails
        self.nonlinearity = nonlinearity
        self._evaluations = 0
        self._intended_params = params
        self._fault = None
        self._row_params: PCAMParams | None = None
        self._row_clip = clip_to_rails
        self._row: tuple[float, ...] = ()

    @property
    def evaluations(self) -> int:
        """Number of match evaluations performed."""
        return self._evaluations

    def _kernel_row(self) -> tuple[float, ...] | None:
        """This cell's row of the stacked kernel's constants matrix.

        ``None`` when the stacked kernel cannot stand in for
        :meth:`response_array`: an injected fault hooks the signal
        path, and non-linear ramps have their own shape.  The row is
        cached until :attr:`params` is replaced or
        :attr:`clip_to_rails` flips.
        """
        if self._fault is not None or self.nonlinearity != "linear":
            return None
        return self._constants()

    def _constants(self) -> tuple[float, ...]:
        p = self.params
        if p is not self._row_params or self.clip_to_rails != self._row_clip:
            # A zero-width ramp region is empty — no input ever selects
            # it — so substitute a unit denominator rather than
            # dividing by zero.
            rise_span = (p.m2 - p.m1) if p.m2 > p.m1 else 1.0
            fall_span = (p.m4 - p.m3) if p.m4 > p.m3 else 1.0
            lo, hi = ((p.pmin, p.pmax) if self.clip_to_rails
                      else (-np.inf, np.inf))
            self._row = (p.m1, p.m2, p.m3, p.m4, p.sa, p.sb, p.pmin, p.pmax,
                         (p.m2 * p.pmin - p.m1 * p.pmax) / rise_span,
                         (p.m4 * p.pmax - p.m3 * p.pmin) / fall_span,
                         lo, hi)
            self._row_params = p
            self._row_clip = self.clip_to_rails
        return self._row

    @property
    def intended_params(self) -> PCAMParams:
        """The parameters the programmer asked for.

        Equal to :attr:`params` on a healthy cell; under an injected
        fault, :attr:`params` holds what the hardware realises while
        this keeps the clean program — the reference the differential
        oracle and the shadow digital oracle compare against.
        """
        return self._intended_params

    @property
    def fault(self):
        """The injected fault instance, or None on a healthy cell."""
        return self._fault

    def inject_fault(self, fault) -> None:
        """Attach a materialised :class:`repro.robustness.models.CellFault`.

        The fault perturbs the realised parameters immediately and its
        signal-path hooks run on every subsequent evaluation.
        """
        self._fault = fault
        self.params = fault.faulted_params(self._intended_params)

    def clear_fault(self) -> None:
        """Detach any injected fault and restore the intended program."""
        self._fault = None
        self.params = self._intended_params

    def program(self, params: PCAMParams) -> None:
        """Reprogram the cell — the ``update_pCAM()`` entry point.

        An injected fault decides what programming achieves: transient
        faults (drift) are scrubbed, persistent ones (stuck cells)
        survive, and programming-variance faults resample.
        """
        self._intended_params = params
        if self._fault is not None:
            realised = self._fault.on_program(params)
            if not self._fault.active:
                self._fault = None
            self.params = realised
        else:
            self.params = params

    def region(self, value: float) -> MatchRegion:
        """Classify an input into one of the five regions."""
        p = self.params
        if value <= p.m1:
            return MatchRegion.MISMATCH_LOW
        if value < p.m2:
            return MatchRegion.PROBABLE_RISING
        if value <= p.m3:
            return MatchRegion.MATCH
        if value < p.m4:
            return MatchRegion.PROBABLE_FALLING
        return MatchRegion.MISMATCH_HIGH

    def response(self, value: float) -> float:
        """The paper's ``pCAM(input)`` for a scalar input."""
        return float(self.response_array(np.asarray([value]))[0])

    def __call__(self, value: float) -> float:
        return self.response(value)

    def response_array(self, values: np.ndarray) -> np.ndarray:
        """Vectorised transfer function over an input array."""
        x = np.asarray(values, dtype=float)
        if self._fault is not None:
            x = self._fault.transform_input(x)
        self._evaluations += x.size
        row = self._constants()
        if self.nonlinearity == "linear":
            output = _linear(row, x)
        else:
            p = self.params
            output = _five_regions(
                row, x,
                self._shaped_ramp(x, p.m1, p.m2, ascending=True),
                self._shaped_ramp(x, p.m3, p.m4, ascending=False))
        if self._fault is not None:
            output = self._fault.transform_response(x, output)
        return output.clip(row[10], row[11])

    def _shaped_ramp(self, x: np.ndarray, lo: float, hi: float, *,
                     ascending: bool) -> np.ndarray:
        """Non-linear ramp between ``lo`` and ``hi`` (future-work mode)."""
        p = self.params
        span = hi - lo
        if span <= 0.0:
            # Empty ramp region: the caller never selects these values.
            t = np.zeros_like(x)
        else:
            t = np.clip((x - lo) / span, 0.0, 1.0)
        if not ascending:
            t = 1.0 - t
        if self.nonlinearity == "sigmoid":
            # Logistic reshaping normalised to hit 0/1 at the ends.
            steepness = 10.0
            raw = 1.0 / (1.0 + np.exp(-steepness * (t - 0.5)))
            lo_v = 1.0 / (1.0 + np.exp(steepness * 0.5))
            hi_v = 1.0 / (1.0 + np.exp(-steepness * 0.5))
            shape = (raw - lo_v) / (hi_v - lo_v)
        else:  # gaussian
            shape = np.exp(-4.0 * (1.0 - t) ** 2)
            shape = (shape - np.exp(-4.0)) / (1.0 - np.exp(-4.0))
        return p.pmin + (p.pmax - p.pmin) * shape

    def deterministic_match(self, value: float) -> bool | None:
        """Digital view of the output: True/False, or None if probabilistic.

        This is the paper's point that pCAM *subsumes* TCAM: inside
        [M2, M3] the cell behaves as logic-1, outside [M1, M4] as
        logic-0, and in between it produces the analog levels a TCAM
        cannot express.
        """
        region = self.region(value)
        if region is MatchRegion.MATCH:
            return True
        if region.deterministic:
            return False
        return None

    def __repr__(self) -> str:
        p = self.params
        return (f"PCAMCell(M=[{p.m1:g}, {p.m2:g}, {p.m3:g}, {p.m4:g}], "
                f"p=[{p.pmin:g}, {p.pmax:g}], {self.nonlinearity})")


def _five_regions(c, x: np.ndarray, rising: np.ndarray,
                  falling: np.ndarray) -> np.ndarray:
    """Route each input to its region's output (before the rail clip).

    ``c`` is a constants row (see :meth:`PCAMCell._kernel_row`) or a
    stack of rows whose columns broadcast against ``x``.
    """
    inner = np.where(x > c[2], falling, np.where(x < c[1], rising, c[7]))
    return np.where((x <= c[0]) | (x >= c[3]), c[6], inner)


def _linear(c, x: np.ndarray) -> np.ndarray:
    """The paper's ``pCAM()`` with linear ramps, before the rail clip."""
    return _five_regions(c, x, c[4] * x + c[8], c[5] * x + c[9])


def _kernel(c, x: np.ndarray) -> np.ndarray:
    """Stacked linear responses, clipped to each row's rails."""
    return _linear(c, x).clip(c[10], c[11])


class CellStack:
    """Evaluates many cells, one per row of a feature matrix, at once.

    Rows whose cell is a plain :class:`PCAMCell` with a
    :meth:`~PCAMCell._kernel_row` share one stacked kernel call over
    the (columns × rows) constants matrix — the software analogue of
    an analog array matching every cell in one cycle.  Every other row
    (device-realised, subclassed, faulted or non-linear cells) calls
    its cell's own ``response_array``, in row order, so per-element
    RNG draws are exactly those of a per-cell loop.  The stacked
    constants are rebuilt only when some cell's row changes.
    """

    def __init__(self) -> None:
        self._rows: tuple = ()
        self._kernel: list[int] = []
        self._own: list[int] = []
        self._slots: list[int | None] = []
        self._consts: tuple[np.ndarray, ...] = ()

    def _plan(self, cells: Sequence) -> None:
        rows = tuple(cell._kernel_row() if type(cell) is PCAMCell else None
                     for cell in cells)
        if len(rows) == len(self._rows) and \
                all(map(operator.is_, rows, self._rows)):
            return
        self._rows = rows
        self._kernel = [i for i, row in enumerate(rows) if row is not None]
        self._own = [i for i, row in enumerate(rows) if row is None]
        self._slots = [None] * len(rows)
        for slot, index in enumerate(self._kernel):
            self._slots[index] = slot
        matrix = np.array([rows[i] for i in self._kernel],
                          dtype=float).reshape(-1, 12)
        # One (rows, 1) column per constant, broadcasting over inputs.
        self._consts = tuple(np.ascontiguousarray(matrix.T)[:, :, None])

    def responses(self, cells: Sequence, x: np.ndarray,
                  count: int | list[int], *,
                  own: Callable[[object, np.ndarray], np.ndarray]
                  | None = None,
                  tracer=None, spans: Sequence[str] = ()) -> np.ndarray:
        """Row ``i`` of the result is ``cells[i]``'s response to ``x[i]``.

        ``x`` has one row per cell and ``count`` columns, or, when
        ``count`` is a list with one count per row, one column standing
        for ``count[i]`` identical values in row ``i`` (a uniform
        batch).  A uniform batch runs the kernel rows once, while own
        rows still evaluate their count's values, so the result has one
        column when every row is on the kernel and the largest count's
        columns otherwise (an own row fills its first ``count[i]``, a
        kernel row every one).  Every cell's evaluation counter
        advances by its count.  ``own(cell, values)`` replaces
        ``response_array`` for own rows; with a ``tracer``, row ``i``
        runs alone inside a span named ``spans[i]``.
        """
        self._plan(cells)
        kernel, consts = self._kernel, self._consts
        uniform = isinstance(count, list)
        counts = count if uniform else [count] * len(cells)

        def call(index: int) -> np.ndarray:
            values = (np.full(counts[index], x[index, 0]) if uniform
                      else x[index])
            if own is None:
                return cells[index].response_array(values)
            return own(cells[index], values)

        if tracer is None and not self._own:
            out = _kernel(consts, x)
        else:
            out = np.empty((len(cells), max(counts) if self._own
                            else x.shape[1]))
            if tracer is None:
                if kernel:
                    out[kernel] = _kernel(consts, x[kernel])
                for index in self._own:
                    out[index, :counts[index]] = call(index)
            else:
                for index, slot in enumerate(self._slots):
                    with tracer.span(spans[index]):
                        if slot is None:
                            out[index, :counts[index]] = call(index)
                        else:
                            out[index] = _kernel([c[slot] for c in consts],
                                                 x[index])
        for index in kernel:
            cells[index]._evaluations += counts[index]
        return out
