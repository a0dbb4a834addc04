"""pCAM match-action memory: stored words searched in parallel."""

import numpy as np
import pytest

from repro.core.pcam_array import PCAMArray, PCAMWord
from repro.core.pcam_cell import PCAMCell, prog_pcam
from repro.robustness import TransientReadNoise

FIELDS = ("dst_port", "size")


def make_array() -> PCAMArray:
    array = PCAMArray(FIELDS)
    # Word 0: web traffic (port ~80, small packets).
    array.add({"dst_port": prog_pcam(70, 79, 81, 90),
               "size": prog_pcam(0, 100, 600, 800)})
    # Word 1: video (port ~443, large packets).
    array.add({"dst_port": prog_pcam(430, 442, 444, 455),
               "size": prog_pcam(800, 1200, 1500, 1600)})
    return array


class TestWord:
    def test_match_is_product_over_fields(self):
        word = PCAMWord.from_params(
            {"a": prog_pcam(0, 1, 2, 3), "b": prog_pcam(0, 1, 2, 3)})
        assert word.match({"a": 1.5, "b": 0.5}) == pytest.approx(0.5)

    def test_missing_field_rejected(self):
        word = PCAMWord.from_params({"a": prog_pcam(0, 1, 2, 3)})
        with pytest.raises(KeyError):
            word.match({"b": 1.0})

    def test_deterministic_match_requires_all_fields(self):
        word = PCAMWord.from_params(
            {"a": prog_pcam(0, 1, 2, 3), "b": prog_pcam(0, 1, 2, 3)})
        assert word.deterministic_match({"a": 1.5, "b": 1.5})
        assert not word.deterministic_match({"a": 1.5, "b": 0.5})

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            PCAMWord({})

    def test_cell_access(self):
        word = PCAMWord.from_params({"a": prog_pcam(0, 1, 2, 3)})
        assert word.cell("a").params.m2 == 1
        with pytest.raises(KeyError):
            word.cell("missing")


class TestSearch:
    def test_exact_query_matches_deterministically(self):
        array = make_array()
        result = array.search({"dst_port": 80, "size": 400})
        assert result.hit
        assert result.best_index == 0
        assert 0 in result.deterministic_indices

    def test_rq1_zero_match_query_still_ranks(self):
        # A query matching no word exactly still returns the closest
        # stored policy - the paper's headline analog capability.
        array = make_array()
        result = array.search({"dst_port": 85, "size": 650})
        assert not result.hit
        assert result.best_index == 0
        assert 0.0 < result.best_probability < 1.0

    def test_probabilities_one_per_word(self):
        array = make_array()
        result = array.search({"dst_port": 80, "size": 400})
        assert result.probabilities.shape == (2,)

    def test_search_energy_scales_with_cells(self):
        array = make_array()
        energy_two = array.search({"dst_port": 80, "size": 400}).energy_j
        array.add({"dst_port": prog_pcam(0, 1, 2, 3),
                   "size": prog_pcam(0, 1, 2, 3)})
        energy_three = array.search({"dst_port": 80, "size": 400}).energy_j
        assert energy_three == pytest.approx(energy_two * 1.5)

    def test_empty_array_misses(self):
        array = PCAMArray(FIELDS)
        result = array.search({"dst_port": 80, "size": 100})
        assert result.best_index is None
        assert not result.hit
        assert result.energy_j == 0.0

    def test_search_counter(self):
        array = make_array()
        array.search({"dst_port": 80, "size": 400})
        assert array.searches == 1


class TestManagement:
    def test_field_mismatch_rejected(self):
        array = make_array()
        with pytest.raises(ValueError):
            array.add({"wrong_field": prog_pcam(0, 1, 2, 3)})

    def test_remove_and_bounds(self):
        array = make_array()
        array.remove(0)
        assert len(array) == 1
        with pytest.raises(IndexError):
            array.remove(5)
        with pytest.raises(IndexError):
            array.word(5)

    def test_word_accessor(self):
        array = make_array()
        assert set(array.word(0).fields) == set(FIELDS)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            PCAMArray(())
        with pytest.raises(ValueError):
            PCAMArray(FIELDS, match_threshold=0.0)


def reference_match(array, queries):
    """Per-word, per-cell ``response_array`` products, words in order."""
    columns = []
    for word in array.words:
        probability = None
        for field, cell in word.cells.items():
            response = cell.response_array(
                np.atleast_1d(np.asarray(queries[field], dtype=float)))
            probability = (response if probability is None
                           else probability * response)
        columns.append(probability)
    return np.stack(columns, axis=1)


def noisy_array(reversed_word):
    """Three words, word 0 with a seeded read-noise fault; word 2
    optionally stores its fields in reverse order."""
    array = make_array()
    cells = {"dst_port": PCAMCell(prog_pcam(60, 75, 85, 100)),
             "size": PCAMCell(prog_pcam(0, 200, 400, 900))}
    if reversed_word:
        cells = {"size": cells["size"], "dst_port": cells["dst_port"]}
    array.add(PCAMWord(cells))
    cell = array.word(0).cell("size")
    cell.inject_fault(TransientReadNoise(sigma=0.05).materialise(
        cell.intended_params, np.random.default_rng(4)))
    return array


class TestStackedMatch:
    @pytest.mark.parametrize("n_queries", [1, 33])
    @pytest.mark.parametrize("reversed_word", [False, True])
    def test_match_batch_equals_per_cell_reference(self, n_queries,
                                                   reversed_word):
        rng = np.random.default_rng(n_queries)
        queries = {"dst_port": rng.uniform(50, 120, n_queries),
                   "size": rng.uniform(0, 1000, n_queries)}
        stacked, reference = (noisy_array(reversed_word)
                              for _ in range(2))
        if reversed_word:
            assert stacked.word(2).fields == ("size", "dst_port")
        got = stacked.match_batch(queries)
        expected = reference_match(reference, queries)
        assert got.shape == (n_queries, 3)
        assert np.array_equal(got, expected)  # bit-exact, same RNG draws
        for word_a, word_b in zip(stacked.words, reference.words):
            for field in FIELDS:
                assert word_a.cell(field).evaluations == \
                    word_b.cell(field).evaluations == n_queries
        assert np.array_equal(
            stacked.word(1).match_batch(queries),
            reference_match(reference, queries)[:, 1])

    def test_empty_array_match_batch(self):
        array = PCAMArray(FIELDS)
        got = array.match_batch({"dst_port": np.arange(4.0),
                                 "size": np.arange(4.0)})
        assert got.shape == (4, 0)
