"""Energy ledger accounting."""

import pickle
import random

import pytest

from repro.energy import (
    ACCOUNT_COMPUTE,
    ACCOUNT_MOVEMENT,
    EnergyLedger,
    ExactJoules,
)


def test_charges_accumulate_per_account():
    ledger = EnergyLedger()
    ledger.charge("tcam.search", 1e-15)
    ledger.charge("tcam.search", 2e-15)
    ledger.charge("pcam.search", 5e-17)
    assert ledger.account("tcam.search") == pytest.approx(3e-15)
    assert ledger.total == pytest.approx(3.05e-15)
    assert ledger.events == 3


def test_negative_charge_rejected():
    ledger = EnergyLedger()
    with pytest.raises(ValueError):
        ledger.charge("x", -1.0)


def test_unknown_account_reads_zero():
    assert EnergyLedger().account("nothing") == 0.0


def test_merge_combines_ledgers():
    a = EnergyLedger()
    b = EnergyLedger()
    a.charge("x", 1.0)
    b.charge("x", 2.0)
    b.charge("y", 3.0)
    a.merge(b)
    assert a.account("x") == pytest.approx(3.0)
    assert a.account("y") == pytest.approx(3.0)
    assert a.events == 3


def test_by_prefix_sums_subaccounts():
    ledger = EnergyLedger()
    ledger.charge("tcam.search", 1.0)
    ledger.charge("tcam.write", 2.0)
    ledger.charge("pcam.search", 4.0)
    assert ledger.by_prefix("tcam.") == pytest.approx(3.0)


def test_breakdown_sorted_descending():
    ledger = EnergyLedger()
    ledger.charge("small", 1.0)
    ledger.charge("big", 10.0)
    assert list(ledger.breakdown()) == ["big", "small"]


def test_fractions_sum_to_one():
    ledger = EnergyLedger()
    ledger.charge(ACCOUNT_MOVEMENT, 9.0)
    ledger.charge(ACCOUNT_COMPUTE, 1.0)
    fractions = ledger.fractions()
    assert fractions[ACCOUNT_MOVEMENT] == pytest.approx(0.9)
    assert sum(fractions.values()) == pytest.approx(1.0)


def test_fractions_of_empty_ledger():
    assert EnergyLedger().fractions() == {}


def test_reset_clears_everything():
    ledger = EnergyLedger()
    ledger.charge("x", 1.0)
    ledger.reset()
    assert ledger.total == 0.0
    assert ledger.events == 0
    assert len(ledger) == 0


def test_iteration_yields_accounts():
    ledger = EnergyLedger()
    ledger.charge("a", 1.0)
    assert dict(iter(ledger)) == {"a": 1.0}


def test_merge_with_self_is_a_no_op():
    ledger = EnergyLedger()
    ledger.charge("a", 2.0)
    ledger.charge("b", 1.0)
    ledger.merge(ledger)
    assert ledger.total == pytest.approx(3.0)
    assert ledger.account("a") == pytest.approx(2.0)
    assert ledger.events == 2


def test_merge_with_distinct_empty_ledger_unchanged():
    ledger = EnergyLedger()
    ledger.charge("a", 2.0)
    ledger.merge(EnergyLedger())
    assert ledger.total == pytest.approx(2.0)
    assert ledger.events == 1


# ----------------------------------------------------------------------
# Exact (partition-invariant) accumulation — the fabric contract
# ----------------------------------------------------------------------

def _quanta(seed=7, n=200):
    rng = random.Random(seed)
    return [rng.random() * 10.0 ** rng.randint(-18, -9) for _ in range(n)]


def test_accumulation_is_order_invariant():
    quanta = _quanta()
    forward, backward = EnergyLedger(), EnergyLedger()
    for q in quanta:
        forward.charge("a", q)
    for q in reversed(quanta):
        backward.charge("a", q)
    # Bit-identical, not approx: the sum is exact until the one final
    # rounding, so ordering cannot perturb the last ulp.
    assert forward.account("a") == backward.account("a")
    assert forward.total == backward.total


def test_merge_is_partition_invariant():
    quanta = _quanta(seed=11)
    serial = EnergyLedger()
    for q in quanta:
        serial.charge("a", q)
    for n_shards in (2, 3, 4, 7):
        shards = [EnergyLedger() for _ in range(n_shards)]
        for i, q in enumerate(quanta):
            shards[i % n_shards].charge("a", q)
        merged = EnergyLedger()
        for shard in shards:
            merged.merge(shard)
        assert merged.account("a") == serial.account("a")
        assert merged.total == serial.total
        assert merged.events == serial.events


def test_charge_quanta_equals_repeated_scalar_charges():
    quantum = 1.3e-15
    scalar, batched = EnergyLedger(), EnergyLedger()
    for _ in range(1000):
        scalar.charge("a", quantum)
    batched.charge_quanta("a", quantum, 1000)
    assert batched.account("a") == scalar.account("a")
    # A quanta burst is one ledger event, however many quanta it books.
    assert batched.events == 1


def test_charge_quanta_zero_count_is_free():
    ledger = EnergyLedger()
    ledger.charge_quanta("a", 1e-12, 0)
    assert ledger.account("a") == 0.0
    assert ledger.events == 1


def test_charge_quanta_rejects_bad_inputs():
    ledger = EnergyLedger()
    with pytest.raises(ValueError):
        ledger.charge_quanta("a", -1e-12, 3)
    with pytest.raises(ValueError):
        ledger.charge_quanta("a", float("nan"), 3)
    with pytest.raises(ValueError):
        ledger.charge_quanta("a", 1e-12, -1)


def test_exact_joules_round_trips_through_pickle():
    exact = ExactJoules()
    exact.add(3.7e-13, count=41)
    clone = pickle.loads(pickle.dumps(exact))
    assert clone == exact
    assert float(clone) == float(exact)


def test_ledger_round_trips_through_pickle():
    ledger = EnergyLedger()
    for q in _quanta(seed=3, n=50):
        ledger.charge("tcam.search", q)
    clone = pickle.loads(pickle.dumps(ledger))
    assert clone.account("tcam.search") == ledger.account("tcam.search")
    assert clone.events == ledger.events


def test_cached_total_follows_every_write():
    # The total is cached between writes; every writer (charge,
    # charge_quanta, merge, reset) must refresh it, so each read
    # equals a fresh ledger's total over the same charges.
    def fresh(*charges):
        reference = EnergyLedger()
        for account, quantum, count in charges:
            reference.charge_quanta(account, quantum, count)
        return reference.total

    ledger = EnergyLedger()
    assert ledger.total == 0.0
    ledger.charge("x", 0.1)
    assert ledger.total == fresh(("x", 0.1, 1))
    ledger.charge_quanta("y", 0.2, 3)
    assert ledger.total == fresh(("x", 0.1, 1), ("y", 0.2, 3))
    other = EnergyLedger()
    other.charge("z", 1e-3)
    ledger.merge(other)
    assert ledger.total == fresh(("x", 0.1, 1), ("y", 0.2, 3),
                                 ("z", 1e-3, 1))
    ledger.reset()
    assert ledger.total == 0.0
