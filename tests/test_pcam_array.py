"""pCAM match-action memory: stored words (rows) searched in parallel.

Every stored word is a :class:`PCAMPipeline`; the array evaluates all
their cells in one stacked call and reduces each row with its own
composition rule, so column ``j`` of a search is row ``j``'s own
``evaluate_batch``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pcam_array import PCAMArray
from repro.core.pcam_cell import PCAMCell, prog_pcam
from repro.core.pcam_pipeline import BATCH_COMPOSITIONS, PCAMPipeline
from repro.robustness import (
    FaultInjector,
    ProgrammingVariance,
    TransientReadNoise,
)

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
    """A stored word is a product pipeline, one stage per field."""

    def test_match_is_product_over_fields(self):
        array = PCAMArray(("a", "b"))
        array.add({"a": prog_pcam(0, 1, 2, 3), "b": prog_pcam(0, 1, 2, 3)})
        assert array.word(0).composition == "product"
        got = array.match_batch({"a": [1.5], "b": [0.5]})
        assert got.tolist() == [[pytest.approx(0.5)]]

    def test_missing_field_rejected(self):
        array = PCAMArray(("a",))
        array.add({"a": prog_pcam(0, 1, 2, 3)})
        with pytest.raises(KeyError):
            array.match_batch({"b": [1.0]})
        with pytest.raises(KeyError):
            array.search({"b": 1.0})

    def test_extra_query_keys_ignored(self):
        array = make_array()
        query = {"dst_port": 80, "size": 400}
        assert np.array_equal(
            array.search({**query, "ttl": 64}).probabilities,
            array.search(query).probabilities)

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            PCAMArray(("a",)).add({})

    def test_cell_access(self):
        array = PCAMArray(("a",))
        array.add({"a": prog_pcam(0, 1, 2, 3)})
        assert array.word(0).stage("a").params.m2 == 1
        with pytest.raises(KeyError):
            array.word(0).stage("missing")


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
        three = array.search({"dst_port": 80, "size": 400})
        assert three.energy_j == pytest.approx(energy_two * 1.5)
        assert three.probabilities.shape == (3,)

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
        array.search({"dst_port": 80, "size": 400})
        array.remove(0)
        assert len(array) == 1
        result = array.search({"dst_port": 443, "size": 1300})
        assert result.probabilities.tolist() == [1.0]
        with pytest.raises(IndexError):
            array.remove(5)
        with pytest.raises(IndexError):
            array.word(5)

    def test_word_accessor(self):
        array = make_array()
        assert isinstance(array.word(0), PCAMPipeline)
        assert set(array.word(0).stage_names) == set(FIELDS)
        assert array.words == (array.word(0), array.word(1))

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
        for field in word.stage_names:
            response = word.stage(field).response_array(
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
    array.add(PCAMPipeline(cells))
    cell = array.word(0).stage("size")
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
            assert stacked.word(2).stage_names == ("size", "dst_port")
        got = stacked.match_batch(queries)
        expected = reference_match(reference, queries)
        assert got.shape == (n_queries, 3)
        assert np.array_equal(got, expected)  # bit-exact, same RNG draws
        for word_a, word_b in zip(stacked.words, reference.words):
            for field in FIELDS:
                assert word_a.stage(field).evaluations == \
                    word_b.stage(field).evaluations == n_queries
        assert np.array_equal(
            stacked.word(1).evaluate_batch(queries),
            reference_match(reference, queries)[:, 1])

    def test_empty_array_match_batch(self):
        array = PCAMArray(FIELDS)
        got = array.match_batch({"dst_port": np.arange(4.0),
                                 "size": np.arange(4.0)})
        assert got.shape == (4, 0)


# ----------------------------------------------------------------------
# One row model: every column is its row's own pipeline evaluation
# ----------------------------------------------------------------------
BANK_FIELDS = ("f0", "f1", "f2")


@st.composite
def window(draw):
    m1 = draw(st.floats(-1.0, 1.0))
    gaps = [draw(st.floats(0.0, 1.0)) for _ in range(3)]
    pmin = draw(st.floats(0.0, 0.4))
    pmax = draw(st.floats(0.6, 1.0))
    m2 = m1 + gaps[0]
    m3 = m2 + gaps[1]
    return prog_pcam(m1, m2, m3, m3 + gaps[2], pmax=pmax, pmin=pmin)


@st.composite
def bank_specs(draw):
    """1-5 rows: each its own field order, composition and windows;
    one cell (row, field) gets a seeded read-noise fault."""
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        order = draw(st.permutations(BANK_FIELDS))
        composition = draw(st.sampled_from(sorted(BATCH_COMPOSITIONS)))
        rows.append(({field: draw(window()) for field in order},
                     composition))
    noisy = (draw(st.integers(0, len(rows) - 1)),
             draw(st.sampled_from(BANK_FIELDS)))
    return rows, noisy, draw(st.integers(0, 2 ** 32 - 1))


def build_bank(spec):
    rows, (noisy_row, noisy_field), seed = spec
    array = PCAMArray(BANK_FIELDS)
    for params, composition in rows:
        array.add(PCAMPipeline.from_params(params, composition))
    cell = array.word(noisy_row).stage(noisy_field)
    cell.inject_fault(TransientReadNoise(sigma=0.05).materialise(
        cell.intended_params, np.random.default_rng(seed)))
    return array


class TestOneRowModel:
    @settings(max_examples=80, deadline=None)
    @given(spec=bank_specs(), n_queries=st.integers(1, 40),
           query_seed=st.integers(0, 2 ** 16))
    def test_columns_are_the_rows_own_evaluations(self, spec, n_queries,
                                                  query_seed):
        rng = np.random.default_rng(query_seed)
        queries = {field: rng.uniform(-1.5, 3.5, n_queries)
                   for field in BANK_FIELDS}
        bank, twin = build_bank(spec), build_bank(spec)
        got = bank.match_batch(queries)
        assert got.shape == (n_queries, len(bank))
        for j, row in enumerate(twin.words):
            # Bit-identical, including the noisy cell's draws.
            assert got[:, j].tobytes() == \
                row.evaluate_batch(queries).tobytes()
        for row_a, row_b in zip(bank.words, twin.words):
            for field in BANK_FIELDS:
                assert row_a.stage(field).evaluations == \
                    row_b.stage(field).evaluations == n_queries

    def test_composition_is_fixed_at_construction(self):
        # The array reduces a stored word with the rule it read when
        # the word was added; a later reassignment would split the
        # word's own evaluation from its column.
        word = PCAMPipeline.from_params({"a": prog_pcam(0, 1, 2, 3)})
        with pytest.raises(AttributeError):
            word.composition = "min"

    def test_clone_ideal_of_a_faulted_pipeline_is_the_rebuild(self):
        params = {"a": prog_pcam(0, 1, 2, 3), "b": prog_pcam(-1, 0, 1, 2)}
        pipeline = PCAMPipeline.from_params(params, "geometric")
        FaultInjector(ProgrammingVariance(sigma=0.15),
                      rng=np.random.default_rng(0)).inject_pipeline(pipeline)
        assert all(pipeline.stage(name).params != params[name]
                   for name in params)
        clone = pipeline.clone_ideal()
        rebuild = PCAMPipeline.from_params(params, "geometric")
        assert clone.stage_names == rebuild.stage_names
        assert clone.composition == "geometric"
        for name in params:
            assert clone.stage(name).params == params[name]
            assert clone.stage(name).fault is None
        queries = {"a": np.linspace(-1, 4, 41), "b": np.linspace(-2, 3, 41)}
        assert clone.evaluate_batch(queries).tobytes() == \
            rebuild.evaluate_batch(queries).tobytes()

    def test_clone_ideal_of_a_faulted_array_is_the_rebuild(self):
        faulted, rebuild = make_array(), make_array()
        report = FaultInjector(
            ProgrammingVariance(sigma=0.15),
            rng=np.random.default_rng(1)).inject_array(faulted)
        assert report.array_cells == [(0, "dst_port"), (0, "size"),
                                      (1, "dst_port"), (1, "size")]
        clone = faulted.clone_ideal()
        assert len(clone) == len(rebuild)
        for word, reference in zip(clone.words, rebuild.words):
            assert word.stage_names == reference.stage_names
            assert word.composition == reference.composition
            for name in word.stage_names:
                assert word.stage(name).params == \
                    reference.stage(name).params
                assert word.stage(name).fault is None
        queries = {"dst_port": np.linspace(60, 460, 33),
                   "size": np.linspace(0, 1600, 33)}
        assert clone.match_batch(queries).tobytes() == \
            rebuild.match_batch(queries).tobytes()
