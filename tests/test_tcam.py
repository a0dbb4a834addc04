"""Behavioural TCAM: ternary matching, priorities, energy."""

import numpy as np
import pytest

from repro.energy.ledger import (ACCOUNT_COMPUTE, ACCOUNT_MOVEMENT,
                                 EnergyLedger)
from repro.tcam.tcam import (TCAM, TernaryPattern, key_from_int,
                             key_matrix, pack_bits)


def assert_same_ledger(batch, scalar):
    """Every account, and the total, equal to the last bit."""
    assert batch.breakdown() == scalar.breakdown()
    for account in (ACCOUNT_MOVEMENT, ACCOUNT_COMPUTE):
        assert batch.account(account) == scalar.account(account)
    assert batch.total == scalar.total


def random_ternary_table(rng, *cams, n_entries=12):
    """Install the same random ternary words, spanning the whole width
    (both key words of a 104-bit table) with a spread of explicit
    priorities, in every given CAM; returns the patterns."""
    width = cams[0].width_bits
    patterns = []
    for _ in range(n_entries):
        bits = rng.random(width) < 0.5
        care = rng.random(width) < rng.choice([0.2, 0.6, 0.95])
        pattern = TernaryPattern(bits=bits, care=care)
        priority = int(rng.integers(0, 4))
        for cam in cams:
            cam.add(pattern, priority=priority)
        patterns.append(pattern)
    return patterns


def keys_hitting(patterns, rng, width, n_keys=48):
    """Keys that agree with a random stored word on every cared-for bit
    (so they hit through both 64-bit words), plus random keys."""
    keys = []
    for index in range(n_keys):
        key = rng.random(width) < 0.5
        if index % 3:
            pattern = patterns[int(rng.integers(len(patterns)))]
            key = np.where(pattern.care, pattern.bits, key)
        keys.append(key)
    return np.array(keys)


class TestTernaryPattern:
    def test_parse_and_str_round_trip(self):
        pattern = TernaryPattern.parse("10x1")
        assert str(pattern) == "10x1"
        assert pattern.width == 4

    def test_parse_accepts_star_wildcard(self):
        assert str(TernaryPattern.parse("1*0")) == "1x0"

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            TernaryPattern.parse("10z1")
        with pytest.raises(ValueError):
            TernaryPattern.parse("")

    def test_from_value_msb_first(self):
        pattern = TernaryPattern.from_value(0b1010, 4)
        assert str(pattern) == "1010"

    def test_from_value_with_mask(self):
        pattern = TernaryPattern.from_value(0b1000, 4, mask=0b1100)
        assert str(pattern) == "10xx"

    def test_from_value_validates(self):
        with pytest.raises(ValueError):
            TernaryPattern.from_value(16, 4)
        with pytest.raises(ValueError):
            TernaryPattern.from_value(1, 0)

    def test_matches_semantics(self):
        pattern = TernaryPattern.parse("1x0")
        assert pattern.matches(key_from_int(0b110, 3))
        assert pattern.matches(key_from_int(0b100, 3))
        assert not pattern.matches(key_from_int(0b101, 3))
        assert not pattern.matches(key_from_int(0b010, 3))

    def test_matches_width_checked(self):
        with pytest.raises(ValueError):
            TernaryPattern.parse("10").matches(key_from_int(1, 3))


class TestKeyFromInt:
    def test_msb_first_encoding(self):
        key = key_from_int(0b101, 3)
        np.testing.assert_array_equal(key, [True, False, True])

    def test_range_validated(self):
        with pytest.raises(ValueError):
            key_from_int(8, 3)


class TestSearch:
    def make(self) -> TCAM:
        tcam = TCAM(4)
        tcam.add("1xxx")    # entry 0
        tcam.add("10xx")    # entry 1
        tcam.add("0000")    # entry 2
        return tcam

    def test_all_matches_reported(self):
        tcam = self.make()
        result = tcam.search(0b1011)
        assert result.matched_indices == (0, 1)

    def test_priority_lowest_wins(self):
        tcam = self.make()
        assert tcam.search(0b1011).best_index == 0

    def test_explicit_priority_overrides_order(self):
        tcam = TCAM(4)
        tcam.add("1xxx", priority=10)
        tcam.add("10xx", priority=1)
        assert tcam.search(0b1011).best_index == 1

    def test_miss(self):
        tcam = self.make()
        result = tcam.search(0b0001)
        assert not result.hit
        assert result.best_index is None
        assert result.matched_indices == ()

    def test_digital_output_only(self):
        # The central TCAM limitation: no partial-match output exists.
        tcam = self.make()
        result = tcam.search(0b0001)
        assert isinstance(result.hit, bool)

    def test_integer_and_array_keys_agree(self):
        tcam = self.make()
        by_int = tcam.search(0b1010)
        by_array = tcam.search(key_from_int(0b1010, 4))
        assert by_int.matched_indices == by_array.matched_indices

    def test_key_width_validated(self):
        with pytest.raises(ValueError):
            self.make().search(key_from_int(1, 3))

    def test_remove_entry(self):
        tcam = self.make()
        tcam.remove(0)
        result = tcam.search(0b1011)
        assert result.matched_indices == (0,)  # old entry 1 shifted
        with pytest.raises(IndexError):
            tcam.remove(10)


class TestEnergyModel:
    def test_search_energy_scales_with_array_size(self):
        small = TCAM(8)
        large = TCAM(8)
        small.add("1" * 8)
        for _ in range(10):
            large.add("1" * 8)
        assert (large.search(0).energy_j
                == pytest.approx(10 * small.search(0).energy_j))

    def test_movement_dominates_digital_search(self):
        tcam = TCAM(16)
        tcam.add("x" * 16)
        tcam.search(0)
        movement = tcam.ledger.account(ACCOUNT_MOVEMENT)
        compute = tcam.ledger.account(ACCOUNT_COMPUTE)
        assert movement == pytest.approx(9 * compute)

    def test_search_counter(self):
        tcam = TCAM(4)
        tcam.add("xxxx")
        tcam.search(0)
        tcam.search(1)
        assert tcam.searches == 2

    def test_latency_reported(self):
        tcam = TCAM(4, search_latency_s=2e-9)
        tcam.add("xxxx")
        assert tcam.search(0).latency_s == 2e-9

    def test_pattern_width_validated(self):
        with pytest.raises(ValueError):
            TCAM(4).add("10101")

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            TCAM(0)
        with pytest.raises(ValueError):
            TCAM(4, movement_fraction=1.5)


class TestKeyMatrix:
    def test_rows_match_key_from_int(self):
        values = np.array([0, 5, 10, 15], dtype=np.uint64)
        matrix = key_matrix(values, 4)
        for row, value in zip(matrix, values):
            np.testing.assert_array_equal(row,
                                          key_from_int(int(value), 4))

    def test_width_and_range_validated(self):
        with pytest.raises(ValueError):
            key_matrix(np.array([0]), 0)
        with pytest.raises(ValueError):
            key_matrix(np.array([0]), 65)
        with pytest.raises(ValueError):
            key_matrix(np.array([16], dtype=np.uint64), 4)

    def test_rejects_2d_input(self):
        with pytest.raises(ValueError):
            key_matrix(np.zeros((2, 2), dtype=np.uint64), 4)


class TestSearchBatch:
    def make(self) -> TCAM:
        tcam = TCAM(4)
        tcam.add("1xxx")    # entry 0
        tcam.add("10xx")    # entry 1
        tcam.add("0000")    # entry 2
        return tcam

    def all_keys(self) -> np.ndarray:
        return key_matrix(np.arange(16, dtype=np.uint64), 4)

    def test_winners_match_scalar_search(self):
        batch = self.make()
        scalar = self.make()
        result = batch.search_batch(self.all_keys())
        expected = [scalar.search(value).best_index
                    for value in range(16)]
        expected = [-1 if index is None else index
                    for index in expected]
        np.testing.assert_array_equal(result.best_indices, expected)

    def test_hit_mask_and_len(self):
        result = self.make().search_batch(self.all_keys())
        assert len(result) == 16
        np.testing.assert_array_equal(result.hit_mask,
                                      result.best_indices >= 0)

    def test_energy_and_counters_equal_scalar_loop(self):
        batch = self.make()
        scalar = self.make()
        result = batch.search_batch(self.all_keys())
        scalar_energy = sum(scalar.search(value).energy_j
                            for value in range(16))
        assert result.energy_j == pytest.approx(scalar_energy)
        assert batch.searches == scalar.searches == 16
        assert_same_ledger(batch.ledger, scalar.ledger)

    def test_priority_tie_break_matches_scalar(self):
        batch = TCAM(4)
        scalar = TCAM(4)
        for tcam in (batch, scalar):
            tcam.add("1xxx", priority=5)
            tcam.add("1xx1", priority=5)   # tie: first entry must win
            tcam.add("10xx", priority=1)
        keys = self.all_keys()
        winners = batch.search_batch(keys).best_indices
        for value in range(16):
            expected = scalar.search(value).best_index
            assert winners[value] == (-1 if expected is None
                                      else expected)

    def test_empty_table_all_miss_with_scalar_energy(self):
        batch = TCAM(4)
        scalar = TCAM(4)
        result = batch.search_batch(self.all_keys())
        assert not result.hit_mask.any()
        scalar_energy = sum(scalar.search(value).energy_j
                            for value in range(16))
        assert result.energy_j == pytest.approx(scalar_energy)
        assert_same_ledger(batch.ledger, scalar.ledger)

    def test_empty_batch(self):
        result = self.make().search_batch(
            np.zeros((0, 4), dtype=bool))
        assert len(result) == 0
        assert result.energy_j == 0.0

    def test_shape_validated(self):
        with pytest.raises(ValueError):
            self.make().search_batch(np.zeros((4, 3), dtype=bool))
        with pytest.raises(ValueError):
            self.make().search_batch(np.zeros(4, dtype=bool))

    def test_internal_slicing_preserves_results(self, monkeypatch):
        batch = self.make()
        reference = self.make()
        keys = self.all_keys()
        expected = reference.search_batch(keys)
        monkeypatch.setattr(TCAM, "_MAX_BATCH_CELLS",
                            batch.width_bits * 3 * 2)  # 2 keys/slice
        result = batch.search_batch(keys)
        np.testing.assert_array_equal(result.best_indices,
                                      expected.best_indices)
        assert result.energy_j == pytest.approx(expected.energy_j)
        assert_same_ledger(batch.ledger, reference.ledger)
        # One movement and one compute charge per 2-key slice.
        assert batch.ledger.events == 2 * 8


class TestGenerationCounter:
    def test_bumps_on_add_and_remove(self):
        tcam = TCAM(4)
        start = tcam.generation
        tcam.add("1xxx")
        after_add = tcam.generation
        assert after_add > start
        tcam.remove(0)
        assert tcam.generation > after_add

    def test_stable_across_searches(self):
        tcam = TCAM(4)
        tcam.add("xxxx")
        generation = tcam.generation
        tcam.search(0)
        tcam.search_batch(key_matrix(np.arange(4, dtype=np.uint64), 4))
        assert tcam.generation == generation


class TestTwoWordTable:
    """104-bit (two 64-bit words) tables with random ternary masks."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batch_equals_scalar_loop(self, seed):
        rng = np.random.default_rng(seed)
        batch, scalar = TCAM(104), TCAM(104)
        patterns = random_ternary_table(rng, batch, scalar)
        keys = keys_hitting(patterns, rng, 104)
        result = batch.search_batch(keys)
        expected = [scalar.search(key) for key in keys]
        for got, want, key in zip(result.best_indices, expected, keys):
            assert got == (-1 if want.best_index is None
                           else want.best_index)
            assert want.matched_indices == tuple(
                i for i, p in enumerate(patterns) if p.matches(key))
        assert result.hit_mask.sum() >= len(keys) // 2
        assert_same_ledger(batch.ledger, scalar.ledger)

    def test_forced_slices_keep_energy_and_events(self, monkeypatch):
        rng = np.random.default_rng(7)
        whole, sliced = TCAM(104), TCAM(104)
        patterns = random_ternary_table(rng, whole, sliced, n_entries=5)
        keys = keys_hitting(patterns, rng, 104, n_keys=31)
        expected = whole.search_batch(keys)
        monkeypatch.setattr(TCAM, "_MAX_BATCH_CELLS", 104 * 5 * 4)
        result = sliced.search_batch(keys)
        np.testing.assert_array_equal(result.best_indices,
                                      expected.best_indices)
        assert_same_ledger(sliced.ledger, whole.ledger)
        assert whole.ledger.events == 2          # one slice
        assert sliced.ledger.events == 2 * 8     # ceil(31 / 4) slices


class TestPackedWords:
    def test_pack_bits_layout(self):
        # 104 bits: one full 64-bit word, then a right-aligned 40-bit one.
        value = (0x0102030405060708 << 40) | 0x090A0B0C0D
        words = pack_bits(key_from_int(value, 104)[None, :])
        assert words.dtype == np.uint64
        assert words.tolist() == [[0x0102030405060708, 0x090A0B0C0D]]
        assert pack_bits(key_matrix(np.arange(3), 4)).tolist() == [
            [0], [1], [2]]

    def test_search_words_is_search_batch_packed(self):
        rng = np.random.default_rng(3)
        packed, boolean = TCAM(104), TCAM(104)
        patterns = random_ternary_table(rng, packed, boolean)
        keys = keys_hitting(patterns, rng, 104)
        np.testing.assert_array_equal(
            packed.search_words(pack_bits(keys)).best_indices,
            boolean.search_batch(keys).best_indices)
        assert_same_ledger(packed.ledger, boolean.ledger)

    @pytest.mark.parametrize("kind", ["transistor", "memristor"])
    @pytest.mark.parametrize("cells", [None, 104 * 5 * 4])
    def test_charges_split_like_separate_searches(self, monkeypatch, kind,
                                                  cells):
        # One search over three payers' keys charges each payer exactly
        # what searching its own keys alone does: accounts, joules and
        # events, also when the keys are cut into slices.  A payer with
        # no keys is not charged.
        from repro.tcam.mtcam import MemristorTCAM

        make = {"transistor": TCAM, "memristor": MemristorTCAM}[kind]
        if cells is not None:
            monkeypatch.setattr(TCAM, "_MAX_BATCH_CELLS", cells)
        rng = np.random.default_rng(11)
        shared, alone = make(104), make(104)
        patterns = random_ternary_table(rng, shared, alone, n_entries=5)
        keys = pack_bits(keys_hitting(patterns, rng, 104, n_keys=23))
        counts = [9, 0, 14]
        payers = [EnergyLedger() for _ in counts]
        result = shared.search_words(keys, list(zip(payers, counts)))
        start = 0
        for payer, count in zip(payers, counts):
            own = EnergyLedger()
            expected = alone.search_words(keys[start:start + count],
                                          [(own, count)])
            np.testing.assert_array_equal(
                result.best_indices[start:start + count],
                expected.best_indices)
            assert_same_ledger(payer, own)
            assert payer.events == own.events
            start += count
        assert payers[1].events == 0
        assert shared.ledger.events == 0
        for bad in ([(payers[0], 22)], [(payers[0], 24), (payers[1], -1)]):
            with pytest.raises(ValueError, match="charges"):
                shared.search_words(keys, bad)

    def test_search_words_validates_shape_and_width(self):
        tcam = TCAM(104)
        tcam.add("x" * 104)
        with pytest.raises(ValueError):
            tcam.search_words(np.zeros((2, 1), dtype=np.uint64))
        with pytest.raises(ValueError, match="does not fit in 40 bits"):
            tcam.search_words(np.array([[0, 1 << 40]], dtype=np.uint64))
