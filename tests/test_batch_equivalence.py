"""Batch evaluation must be bit-for-bit the scalar reference, vectorised.

The batched fast path (``response_array`` -> ``evaluate_batch`` ->
``match_batch`` / ``search_batch`` -> ``matvec_batch``) is a pure
re-expression of the scalar code in NumPy: for every random programming
and every feature batch, evaluating the batch must agree with looping
the scalar reference element by element within ``rtol=1e-9``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pcam_array import PCAMArray
from repro.core.pcam_cell import PCAMCell, PCAMParams
from repro.core.pcam_pipeline import BATCH_COMPOSITIONS, PCAMPipeline
from repro.robustness.models import (
    CompositeFaultModel,
    ConductanceDrift,
    ConverterQuantization,
    ProgrammingVariance,
    StuckAtFault,
    TransientReadNoise,
)

RTOL = 1e-9


@st.composite
def arbitrary_params(draw):
    """Random valid parameter sets, canonical slopes NOT required.

    Thresholds may coincide (degenerate zero-width ramps) and the
    programmed slopes may disagree with the canonical ones, which
    exercises the rail-clipping branches of the transfer function.
    """
    m1 = draw(st.floats(-10.0, 10.0, allow_nan=False))
    gap1 = draw(st.floats(0.0, 5.0))
    gap2 = draw(st.floats(0.0, 5.0))
    gap3 = draw(st.floats(0.0, 5.0))
    pmin = draw(st.floats(0.0, 0.5))
    pmax = draw(st.floats(0.5, 1.0))
    sa = draw(st.floats(-20.0, 20.0, allow_nan=False))
    sb = draw(st.floats(-20.0, 20.0, allow_nan=False))
    return PCAMParams(m1=m1, m2=m1 + gap1, m3=m1 + gap1 + gap2,
                      m4=m1 + gap1 + gap2 + gap3, sa=sa, sb=sb,
                      pmax=pmax, pmin=pmin)


@st.composite
def feature_batch(draw, params):
    """Feature values biased to land on and around region boundaries."""
    boundaries = [params.m1, params.m2, params.m3, params.m4]
    strategy = st.one_of(
        st.floats(-20.0, 20.0, allow_nan=False),
        st.sampled_from(boundaries),
        st.sampled_from(boundaries).map(lambda b: b + 1e-12),
        st.sampled_from(boundaries).map(lambda b: b - 1e-12))
    return np.array(draw(st.lists(strategy, min_size=1, max_size=32)))


# ----------------------------------------------------------------------
# Cell level
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_cell_response_array_matches_scalar(data):
    params = data.draw(arbitrary_params())
    values = data.draw(feature_batch(params))
    cell = PCAMCell(params)
    batch = cell.response_array(values)
    reference = np.array([cell.response(float(v)) for v in values])
    assert np.allclose(batch, reference, rtol=RTOL, atol=0.0)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_cell_response_array_without_rail_clipping(data):
    params = data.draw(arbitrary_params())
    values = data.draw(feature_batch(params))
    cell = PCAMCell(params, clip_to_rails=False)
    batch = cell.response_array(values)
    reference = np.array([cell.response(float(v)) for v in values])
    assert np.allclose(batch, reference, rtol=RTOL, atol=0.0)


# ----------------------------------------------------------------------
# Pipeline level — every composition
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(data=st.data(),
       composition=st.sampled_from(sorted(BATCH_COMPOSITIONS)))
def test_pipeline_evaluate_batch_matches_scalar(data, composition):
    stage_params = {name: data.draw(arbitrary_params())
                    for name in ("a", "b", "c")}
    pipeline = PCAMPipeline.from_params(stage_params,
                                        composition=composition)
    batch = {name: data.draw(feature_batch(params))
             for name, params in stage_params.items()}
    n = max(len(v) for v in batch.values())
    batch = {name: np.resize(values, n) for name, values in batch.items()}
    result = pipeline.evaluate_batch(batch)
    reference = np.array([
        pipeline.evaluate({name: float(values[i])
                           for name, values in batch.items()})
        for i in range(n)])
    assert result.shape == (n,)
    assert np.allclose(result, reference, rtol=RTOL, atol=0.0)


def test_pipeline_matrix_input_matches_mapping():
    pipeline = PCAMPipeline.from_params({
        "a": PCAMParams.canonical(0.0, 1.0, 2.0, 3.0),
        "b": PCAMParams.canonical(-1.0, 0.0, 1.0, 2.0)})
    rng = np.random.default_rng(0)
    a, b = rng.uniform(-2, 4, 64), rng.uniform(-2, 4, 64)
    from_mapping = pipeline.evaluate_batch({"a": a, "b": b})
    from_matrix = pipeline.evaluate_batch(np.column_stack([a, b]))
    np.testing.assert_array_equal(from_mapping, from_matrix)


def test_pipeline_scalar_broadcasts_against_batch():
    pipeline = PCAMPipeline.from_params({
        "a": PCAMParams.canonical(0.0, 1.0, 2.0, 3.0),
        "b": PCAMParams.canonical(-1.0, 0.0, 1.0, 2.0)})
    result = pipeline.evaluate_batch(
        {"a": np.array([0.5, 1.5, 2.5]), "b": 0.5})
    reference = pipeline.evaluate_batch(
        {"a": np.array([0.5, 1.5, 2.5]), "b": np.full(3, 0.5)})
    np.testing.assert_array_equal(result, reference)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_pipeline_energy_batch_matches_scalar_ideal(data):
    stage_params = {name: data.draw(arbitrary_params())
                    for name in ("a", "b")}
    pipeline = PCAMPipeline.from_params(stage_params)
    values = data.draw(feature_batch(stage_params["a"]))
    batch = {name: values for name in stage_params}
    probabilities, energy = pipeline.evaluate_with_energy_batch(batch)
    assert energy == 0.0
    for i in range(len(values)):
        ref_p, ref_e = pipeline.evaluate_with_energy(
            {name: float(values[i]) for name in stage_params})
        assert ref_e == 0.0
        assert np.isclose(probabilities[i], ref_p, rtol=RTOL, atol=0.0)


# ----------------------------------------------------------------------
# Array level
# ----------------------------------------------------------------------
@pytest.fixture
def small_array():
    array = PCAMArray(["delay", "load"])
    array.add({"delay": PCAMParams.canonical(0.1, 0.3, 0.6, 0.9),
               "load": PCAMParams.canonical(0.0, 0.2, 0.5, 0.8,
                                            pmax=0.9, pmin=0.05)})
    array.add({"delay": PCAMParams.canonical(0.2, 0.4, 0.5, 0.7),
               "load": PCAMParams.canonical(0.1, 0.3, 0.6, 0.9)})
    array.add({"delay": PCAMParams.canonical(-0.5, 0.0, 0.1, 0.6),
               "load": PCAMParams.canonical(0.4, 0.6, 0.7, 1.0)})
    return array


def test_word_match_batch_matches_scalar(small_array):
    # A stored word is a pipeline: its array column is its own batch
    # evaluation, and that is its scalar evaluation, query by query.
    word = small_array.word(0)
    rng = np.random.default_rng(2)
    queries = {"delay": rng.uniform(-0.2, 1.2, 40),
               "load": rng.uniform(-0.2, 1.2, 40)}
    batch = small_array.match_batch(queries)[:, 0]
    assert np.array_equal(batch, word.evaluate_batch(queries))
    reference = np.array([
        word.evaluate({name: float(values[i])
                       for name, values in queries.items()})
        for i in range(40)])
    assert np.allclose(batch, reference, rtol=RTOL, atol=0.0)


def test_array_search_batch_matches_scalar(small_array):
    rng = np.random.default_rng(3)
    queries = {"delay": rng.uniform(-0.2, 1.2, 50),
               "load": rng.uniform(-0.2, 1.2, 50)}
    batch = small_array.search_batch(queries)
    assert batch.probabilities.shape == (50, len(small_array))
    for i in range(50):
        scalar = small_array.search(
            {name: float(values[i]) for name, values in queries.items()})
        assert np.allclose(batch.probabilities[i], scalar.probabilities,
                           rtol=RTOL, atol=0.0)
        assert batch.best_indices[i] == scalar.best_index
        assert np.isclose(batch.best_probabilities[i],
                          scalar.best_probability, rtol=RTOL, atol=0.0)
        assert (tuple(np.flatnonzero(batch.deterministic_mask[i]))
                == scalar.deterministic_indices)


def test_array_batch_energy_scales_with_queries(small_array):
    queries = {"delay": np.full(10, 0.5), "load": np.full(10, 0.4)}
    batch = small_array.search_batch(queries)
    one = small_array.search({"delay": 0.5, "load": 0.4})
    assert batch.energy_j == pytest.approx(10 * one.energy_j)


def test_array_search_counter_advances_per_query(small_array):
    small_array.search_batch({"delay": np.zeros(7), "load": np.zeros(7)})
    assert small_array.searches == 7


def test_empty_array_batch_search():
    array = PCAMArray(["x"])
    result = array.search_batch({"x": np.zeros(4)})
    assert result.probabilities.shape == (4, 0)
    assert list(result.best_indices) == [-1] * 4
    assert array.searches == 4


# ----------------------------------------------------------------------
# Under every fault model — the equivalence must survive injection
# ----------------------------------------------------------------------
# Stochastic faults draw one variate per evaluated element, in element
# order, so a faulted batch read must reproduce the stream a scalar
# loop consumes from an identically materialised fault.
FAULT_MODELS = [
    StuckAtFault(state="lrs"),
    StuckAtFault(state="hrs"),
    ConductanceDrift(scale=0.4),
    ProgrammingVariance(sigma=0.15),
    ConverterQuantization(dac_bits=4, adc_bits=5),
    TransientReadNoise(sigma=0.08),
    CompositeFaultModel([ConductanceDrift(scale=0.2),
                         ConverterQuantization(dac_bits=5, adc_bits=5),
                         TransientReadNoise(sigma=0.04)]),
]


def _twin_faulted_cells(model, params, seed):
    """Two cells carrying identically materialised fault instances.

    Stochastic faults hold their own RNG stream, which evaluation
    consumes — so batch and scalar legs each need a fresh twin rather
    than sharing one cell.
    """
    cells = []
    for _ in range(2):
        cell = PCAMCell(params)
        cell.inject_fault(model.materialise(cell.intended_params,
                                            np.random.default_rng(seed)))
        cells.append(cell)
    return cells


@pytest.mark.parametrize("model", FAULT_MODELS, ids=lambda m: m.name)
def test_faulted_cell_batch_matches_scalar(model):
    params = PCAMParams.canonical(0.0, 1.0, 2.0, 3.0,
                                  pmax=0.95, pmin=0.05)
    values = np.linspace(-1.5, 4.5, 37)
    batch_cell, scalar_cell = _twin_faulted_cells(model, params, seed=42)
    batch = batch_cell.response_array(values)
    reference = np.array([scalar_cell.response(float(v))
                          for v in values])
    assert np.allclose(batch, reference, rtol=RTOL, atol=0.0)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), index=st.integers(0, len(FAULT_MODELS) - 1),
       seed=st.integers(0, 2**32 - 1))
def test_faulted_cell_batch_matches_scalar_arbitrary_params(data, index,
                                                            seed):
    model = FAULT_MODELS[index]
    params = data.draw(arbitrary_params())
    values = data.draw(feature_batch(params))
    batch_cell, scalar_cell = _twin_faulted_cells(model, params, seed)
    batch = batch_cell.response_array(values)
    reference = np.array([scalar_cell.response(float(v))
                          for v in values])
    assert np.allclose(batch, reference, rtol=RTOL, atol=0.0)


@pytest.mark.parametrize("model", FAULT_MODELS, ids=lambda m: m.name)
def test_faulted_pipeline_batch_matches_scalar(model):
    stage_params = {
        "a": PCAMParams.canonical(0.0, 1.0, 2.0, 3.0),
        "b": PCAMParams.canonical(-1.0, 0.0, 1.0, 2.0),
        "c": PCAMParams.canonical(0.5, 1.5, 2.5, 3.5, pmin=0.1)}
    pipelines = []
    for _ in range(2):
        pipeline = PCAMPipeline.from_params(stage_params)
        for offset, name in enumerate(pipeline.stage_names):
            stage = pipeline.stage(name)
            stage.inject_fault(model.materialise(
                stage.intended_params, np.random.default_rng(7 + offset)))
        pipelines.append(pipeline)
    rng = np.random.default_rng(9)
    batch = {name: rng.uniform(-2.0, 4.0, 25) for name in stage_params}
    result = pipelines[0].evaluate_batch(batch)
    reference = np.array([
        pipelines[1].evaluate({name: float(values[i])
                               for name, values in batch.items()})
        for i in range(25)])
    assert np.allclose(result, reference, rtol=RTOL, atol=0.0)
