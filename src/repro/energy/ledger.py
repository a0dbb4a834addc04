"""Per-component energy accounting.

The paper's Figure 1 motivates analog processing by attributing up to
~90% of digital TCAM energy to data movement between separate storage
and computation units, against near-zero movement cost for memristors
with colocalized compute and storage.  The :class:`EnergyLedger` lets
every simulated component charge energy to named accounts so that the
breakdown (movement vs computation vs storage) can be reported for any
experiment.

Accumulation is *exact*: every charge is decomposed into its dyadic
rational value (an IEEE-754 double is ``mantissa * 2**exponent``) and
summed with integer arithmetic, so a ledger total is a pure function
of the multiset of charges — independent of charge order, chunk size,
or how the work was partitioned across shard pipelines.  Reading any
account converts the exact sum back to the nearest double once.  The
sharded fabric relies on this: N per-shard ledgers merged together
report byte-identical joules to the single serial pipeline.
:meth:`EnergyLedger.charge_quanta` is the partition-friendly charging
API — ``count`` identical quanta booked in one call cost the same as
``count`` scalar charges, exactly.
"""

from __future__ import annotations

from math import isfinite
from typing import Iterator

from repro.energy.units import format_energy

#: Conventional account names used across the code base.
ACCOUNT_COMPUTE = "compute"
ACCOUNT_STORAGE = "storage"
ACCOUNT_MOVEMENT = "data_movement"
ACCOUNT_CONVERSION = "conversion"  # DAC boundary crossings


class ExactJoules:
    """An exact accumulator over dyadic rationals (float sums).

    Holds ``mantissa * 2**exponent`` with arbitrary-precision integer
    mantissa: adding a float (optionally ``count`` times) is exact, so
    the sum is associative and commutative — partition-invariant.
    ``float()`` performs one correctly-rounded conversion.
    """

    __slots__ = ("_mant", "_exp")

    def __init__(self, mant: int = 0, exp: int = 0) -> None:
        self._mant = mant
        self._exp = exp

    def add(self, value: float, count: int = 1) -> None:
        """Add ``count`` copies of ``value``, exactly."""
        if count == 0 or value == 0.0:
            return
        numerator, denominator = float(value).as_integer_ratio()
        exp = 1 - denominator.bit_length()  # denominator is 2**k
        self._add_scaled(numerator * count, exp)

    def add_quantum(self, quantum: "Quantum", count: int = 1) -> None:
        """Add ``count`` copies of a prepared quantum, exactly."""
        if count and quantum.mant:
            self._add_scaled(quantum.mant * count, quantum.exp)

    def add_exact(self, other: "ExactJoules") -> None:
        """Fold another exact accumulator in (still exact)."""
        self._add_scaled(other._mant, other._exp)

    def _add_scaled(self, mant: int, exp: int) -> None:
        if self._mant == 0:
            self._mant, self._exp = mant, exp
        elif exp >= self._exp:
            self._mant += mant << (exp - self._exp)
        else:
            self._mant = (self._mant << (self._exp - exp)) + mant
            self._exp = exp

    def __float__(self) -> float:
        if self._exp >= 0:
            return float(self._mant << self._exp)
        # Correctly-rounded big-int division: the nearest double to
        # the exact dyadic value, however many bits accumulated.
        return self._mant / (1 << -self._exp)

    def __bool__(self) -> bool:
        return self._mant != 0

    def __reduce__(self):
        return (ExactJoules, (self._mant, self._exp))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactJoules):
            return NotImplemented
        if self._mant == 0 or other._mant == 0:
            return self._mant == other._mant
        shift = self._exp - other._exp
        if shift >= 0:
            return self._mant << shift == other._mant
        return self._mant == other._mant << -shift

    def __repr__(self) -> str:
        return f"ExactJoules({float(self):.6e})"


class Quantum:
    """A charge quantum, checked and split into its dyadic parts once.

    For a component that books the same quantum on every call (a
    TCAM's per-key search energy, fixed per table version):
    :meth:`EnergyLedger.charge_quanta` books it without re-checking or
    re-decomposing the float, exactly as it books ``joules``.
    """

    __slots__ = ("joules", "mant", "exp")

    def __init__(self, joules: float) -> None:
        if not isfinite(joules) or joules < 0:
            raise ValueError(f"bad energy charge: {joules!r}")
        self.joules = joules
        numerator, denominator = float(joules).as_integer_ratio()
        self.mant = numerator
        self.exp = 1 - denominator.bit_length()


class EnergyLedger:
    """Accumulates energy (joules) charged to named accounts.

    Accounts are free-form strings; dotted names (``"tcam.search"``)
    group naturally when summarised by prefix.
    """

    def __init__(self) -> None:
        self._accounts: dict[str, ExactJoules] = {}
        self._events = 0
        #: :attr:`total` as last computed; None once a write lands.
        self._total: float | None = None

    def _account(self, name: str) -> ExactJoules:
        accumulator = self._accounts.get(name)
        if accumulator is None:
            accumulator = self._accounts[name] = ExactJoules()
        return accumulator

    def charge(self, account: str, energy_j: float) -> None:
        """Charge ``energy_j`` joules to ``account``.

        Raises :class:`ValueError` for negative energies: components
        never *recover* energy in this model.
        """
        self.charge_quanta(account, energy_j, 1)

    def charge_quanta(self, account: str, quantum_j: "float | Quantum",
                      count: int) -> None:
        """Charge ``count`` identical quanta of ``quantum_j`` joules.

        Exactly equivalent to ``count`` scalar :meth:`charge` calls of
        the same quantum (integer-scaled, not float-multiplied), so a
        batched component and its scalar reference — or one pipeline
        and N shards splitting the same packets — book identical
        energy regardless of how the work was partitioned.  Counts as
        one charge event.  ``quantum_j`` may be a :class:`Quantum`
        prepared once; it books exactly as its ``joules`` would.
        """
        prepared = type(quantum_j) is Quantum
        if not prepared and (not isfinite(quantum_j) or quantum_j < 0):
            raise ValueError(f"bad energy charge: {quantum_j!r}")
        if count < 0:
            raise ValueError(f"negative quanta count: {count!r}")
        if prepared:
            self._account(account).add_quantum(quantum_j, count)
        else:
            self._account(account).add(quantum_j, count)
        self._events += 1
        self._total = None

    def merge(self, other: "EnergyLedger") -> None:
        """Fold another ledger's accounts into this one (exactly).

        Merging a ledger into itself is a guarded no-op: campaign code
        that folds per-layer ledgers into a grand total can hit the
        aliased case, which would silently double every account.
        """
        if other is self:
            return
        for name, accumulator in other._accounts.items():
            self._account(name).add_exact(accumulator)
        self._events += other._events
        self._total = None

    @property
    def total(self) -> float:
        """Total energy across all accounts, in joules.

        The exact cross-account sum, converted to float once — so the
        total of a merged shard set equals the serial total bit for
        bit, not merely approximately.  It is kept until the next
        charge, merge or reset, so repeated reads (the switch's chunk
        walk reads it around every stage) cost nothing.
        """
        if self._total is None:
            exact = ExactJoules()
            for accumulator in self._accounts.values():
                exact.add_exact(accumulator)
            self._total = float(exact)
        return self._total

    @property
    def events(self) -> int:
        """Number of charge events recorded."""
        return self._events

    def account(self, name: str) -> float:
        """Energy charged to one account (0.0 if never charged)."""
        accumulator = self._accounts.get(name)
        return float(accumulator) if accumulator is not None else 0.0

    def by_prefix(self, prefix: str) -> float:
        """Sum energy over all accounts starting with ``prefix``."""
        exact = ExactJoules()
        for name, accumulator in self._accounts.items():
            if name.startswith(prefix):
                exact.add_exact(accumulator)
        return float(exact)

    def breakdown(self) -> dict[str, float]:
        """Mapping of account name to joules, sorted by descending energy."""
        return dict(sorted(
            ((name, float(acc)) for name, acc in self._accounts.items()),
            key=lambda item: item[1], reverse=True))

    def fractions(self) -> dict[str, float]:
        """Mapping of account name to its fraction of the total energy."""
        total = self.total
        if total == 0:
            return {name: 0.0 for name in self._accounts}
        return {name: value / total
                for name, value in self.breakdown().items()}

    def reset(self) -> None:
        """Zero all accounts."""
        self._accounts.clear()
        self._events = 0
        self._total = None

    def __iter__(self) -> Iterator[tuple[str, float]]:
        return iter((name, float(acc))
                    for name, acc in self._accounts.items())

    def __len__(self) -> int:
        return len(self._accounts)

    def __repr__(self) -> str:
        return (f"EnergyLedger(total={format_energy(self.total)}, "
                f"accounts={len(self._accounts)}, events={self._events})")

