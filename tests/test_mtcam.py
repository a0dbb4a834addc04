"""Memristor-based TCAM: same semantics, device-derived energy."""

import numpy as np
import pytest

from repro.energy.ledger import ACCOUNT_COMPUTE, ACCOUNT_MOVEMENT
from repro.tcam.mtcam import MemristorTCAM
from repro.tcam.tcam import TCAM
from tests.test_tcam import (assert_same_ledger, keys_hitting,
                             random_ternary_table)


def make_pair(width=8):
    digital = TCAM(width)
    memristor = MemristorTCAM(width)
    for cam in (digital, memristor):
        cam.add("1" * width)
        cam.add("x" * (width // 2) + "0" * (width - width // 2))
    return digital, memristor


def test_match_semantics_identical_to_digital():
    digital, memristor = make_pair()
    for key in range(0, 256, 7):
        a = digital.search(key)
        b = memristor.search(key)
        assert a.matched_indices == b.matched_indices
        assert a.best_index == b.best_index


def test_no_data_movement_energy():
    _, memristor = make_pair()
    memristor.search(0)
    assert memristor.ledger.account(ACCOUNT_MOVEMENT) == 0.0
    assert memristor.ledger.account(ACCOUNT_COMPUTE) > 0.0


def test_search_energy_positive_and_recorded():
    _, memristor = make_pair()
    result = memristor.search(0b11111111)
    assert result.energy_j > 0.0
    assert memristor.searches == 1


def test_mismatches_cost_more_than_matches():
    memristor = MemristorTCAM(8)
    memristor.add("1" * 8)
    all_match = memristor.search(0b11111111).energy_j
    all_miss = memristor.search(0b00000000).energy_j
    assert all_miss > all_match


def test_energy_per_bit_below_transistor_baseline():
    # The memristor TCAM must beat the 0.58 fJ/bit transistor figure
    # in the mostly-matching regime that searches operate in.
    memristor = MemristorTCAM(16)
    per_bit = memristor.energy_per_bit_for(mismatch_fraction=0.1)
    assert per_bit < 0.58e-15


def test_energy_per_bit_monotone_in_mismatch_rate():
    memristor = MemristorTCAM(16)
    assert (memristor.energy_per_bit_for(0.9)
            > memristor.energy_per_bit_for(0.1))


def test_energy_per_bit_validates():
    with pytest.raises(ValueError):
        MemristorTCAM(8).energy_per_bit_for(1.5)


def test_search_voltage_validated():
    with pytest.raises(ValueError):
        MemristorTCAM(8, search_voltage_v=0.0)


def test_key_width_validated():
    from repro.tcam.tcam import key_from_int
    with pytest.raises(ValueError):
        MemristorTCAM(8).search(key_from_int(1, 4))


def test_batch_search_energy_matches_scalar_loop():
    from repro.tcam.tcam import key_matrix

    _, batch = make_pair()
    _, scalar = make_pair()
    values = np.arange(0, 256, 7, dtype=np.uint64)
    result = batch.search_batch(key_matrix(values, 8))
    scalar_energy = 0.0
    for row, value in enumerate(values):
        outcome = scalar.search(int(value))
        scalar_energy += outcome.energy_j
        expected = -1 if outcome.best_index is None else outcome.best_index
        assert result.best_indices[row] == expected
    assert result.energy_j == pytest.approx(scalar_energy)
    # Colocalized compute/storage: everything on the compute account.
    assert batch.ledger.account(ACCOUNT_MOVEMENT) == 0.0
    assert_same_ledger(batch.ledger, scalar.ledger)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_two_word_table_batch_equals_scalar_loop(seed):
    rng = np.random.default_rng(seed)
    batch, scalar = MemristorTCAM(104), MemristorTCAM(104)
    patterns = random_ternary_table(rng, batch, scalar)
    keys = keys_hitting(patterns, rng, 104)
    result = batch.search_batch(keys)
    scalar_energy = 0.0
    for got, key in zip(result.best_indices, keys):
        outcome = scalar.search(key)
        scalar_energy += outcome.energy_j
        assert got == (-1 if outcome.best_index is None
                       else outcome.best_index)
    assert result.hit_mask.sum() >= len(keys) // 2
    assert result.energy_j == pytest.approx(scalar_energy)
    assert_same_ledger(batch.ledger, scalar.ledger)


def test_forced_slices_keep_energy_and_events(monkeypatch):
    rng = np.random.default_rng(7)
    whole, sliced = MemristorTCAM(104), MemristorTCAM(104)
    patterns = random_ternary_table(rng, whole, sliced, n_entries=5)
    keys = keys_hitting(patterns, rng, 104, n_keys=31)
    expected = whole.search_batch(keys)
    monkeypatch.setattr(TCAM, "_MAX_BATCH_CELLS", 104 * 5 * 4)
    result = sliced.search_batch(keys)
    np.testing.assert_array_equal(result.best_indices,
                                  expected.best_indices)
    assert result.energy_j == pytest.approx(expected.energy_j)
    assert_same_ledger(sliced.ledger, whole.ledger)
    # Discharge, leakage and (empty) movement charges per slice.
    assert whole.ledger.events == 3
    assert sliced.ledger.events == 3 * 8


def test_cell_energies_follow_their_inputs():
    # The per-cell energies are computed once and reused; changing an
    # input of the device model after a search must take effect, and
    # match a TCAM built with those inputs from the start.
    from repro.device.memristor import MemristorParams

    def rebuilt(cam):
        return MemristorTCAM(
            8, params=cam.params, search_voltage_v=cam.search_voltage_v,
            search_latency_s=cam.search_latency_s,
            matchline_cap_per_cell_f=cam.matchline_cap_per_cell_f)

    _, memristor = make_pair()
    memristor.search(0xFF)
    changes = (("search_voltage_v", 0.8), ("search_latency_s", 2e-9),
               ("matchline_cap_per_cell_f", 2e-15),
               ("params", MemristorParams(r_off=3.2e9)))
    for name, value in changes:
        before = memristor.energy_per_bit_for(0.0)
        setattr(memristor, name, value)
        after = memristor.energy_per_bit_for(0.0)
        assert after != before, name
        assert after == rebuilt(memristor).energy_per_bit_for(0.0)
        assert memristor.energy_per_bit_for(1.0) \
            == rebuilt(memristor).energy_per_bit_for(1.0)
