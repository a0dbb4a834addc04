"""Series composition of pCAM stages (Figure 4b)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pcam_cell import PCAMCell, PCAMParams, prog_pcam
from repro.core.pcam_pipeline import (
    BATCH_COMPOSITIONS,
    MissingFeatureError,
    PCAMPipeline,
    PipelineFeatureError,
    UnknownFeatureError,
)
from repro.observability import Observability
from repro.robustness import FaultInjector, StuckAtFault, TransientReadNoise

P1 = prog_pcam(0.0, 1.0, 2.0, 3.0)
P2 = prog_pcam(-1.0, 0.0, 1.0, 2.0)


def make_pipeline(composition="product"):
    return PCAMPipeline.from_params({"a": P1, "b": P2},
                                    composition=composition)


class TestEvaluation:
    def test_product_of_stage_outputs(self):
        pipeline = make_pipeline()
        a = PCAMCell(P1).response(0.5)
        b = PCAMCell(P2).response(0.5)
        assert pipeline.evaluate({"a": 0.5, "b": 0.5}) == \
            pytest.approx(a * b)

    def test_sequence_input_in_stage_order(self):
        pipeline = make_pipeline()
        assert pipeline.evaluate([0.5, 0.5]) == \
            pytest.approx(pipeline.evaluate({"a": 0.5, "b": 0.5}))

    def test_missing_feature_rejected(self):
        with pytest.raises(KeyError):
            make_pipeline().evaluate({"a": 1.0})

    def test_wrong_length_sequence_rejected(self):
        with pytest.raises(ValueError):
            make_pipeline().evaluate([1.0])

    def test_missing_feature_error_names_stages(self):
        with pytest.raises(MissingFeatureError) as excinfo:
            make_pipeline().evaluate({"a": 1.0})
        message = str(excinfo.value)
        assert "'b'" in message
        assert "['a', 'b']" in message
        # Backward compatible with callers catching KeyError, and
        # catchable via the family base class.
        assert isinstance(excinfo.value, KeyError)
        assert isinstance(excinfo.value, PipelineFeatureError)

    def test_missing_feature_error_str_is_not_reprd(self):
        # KeyError.__str__ would wrap the message in quotes.
        error = MissingFeatureError(["b"], ("a", "b"))
        assert str(error) == ("missing features for stages ['b']; "
                              "pipeline stages are ['a', 'b']")

    def test_unknown_feature_key_rejected(self):
        with pytest.raises(UnknownFeatureError) as excinfo:
            make_pipeline().evaluate({"a": 1.0, "b": 0.5, "c": 2.0})
        message = str(excinfo.value)
        assert "'c'" in message
        assert isinstance(excinfo.value, ValueError)
        assert isinstance(excinfo.value, PipelineFeatureError)

    def test_batch_mapping_raises_same_typed_errors(self):
        pipeline = make_pipeline()
        with pytest.raises(MissingFeatureError):
            pipeline.evaluate_batch({"a": np.zeros(3)})
        with pytest.raises(UnknownFeatureError):
            pipeline.evaluate_batch({"a": np.zeros(3),
                                     "b": np.zeros(3),
                                     "z": np.zeros(3)})

    def test_batch_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="batch length"):
            make_pipeline().evaluate_batch({"a": np.zeros(3),
                                            "b": np.zeros(4)})

    def test_batch_matrix_wrong_width_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            make_pipeline().evaluate_batch(np.zeros((4, 3)))

    def test_any_zero_stage_kills_product(self):
        pipeline = make_pipeline()
        # Stage b mismatches hard at 5.0 -> product 0 regardless of a.
        assert pipeline.evaluate({"a": 1.5, "b": 5.0}) == 0.0


class TestCompositions:
    def test_all_compositions_available(self):
        assert set(BATCH_COMPOSITIONS) == {"product", "min",
                                           "geometric", "mean"}

    def test_min_composition(self):
        pipeline = make_pipeline("min")
        a = PCAMCell(P1).response(0.5)
        b = PCAMCell(P2).response(0.5)
        assert pipeline.evaluate([0.5, 0.5]) == pytest.approx(min(a, b))

    def test_mean_composition(self):
        pipeline = make_pipeline("mean")
        a = PCAMCell(P1).response(0.5)
        b = PCAMCell(P2).response(0.5)
        assert pipeline.evaluate([0.5, 0.5]) == \
            pytest.approx(0.5 * (a + b))

    def test_geometric_composition(self):
        pipeline = make_pipeline("geometric")
        a = PCAMCell(P1).response(0.5)
        b = PCAMCell(P2).response(0.5)
        assert pipeline.evaluate([0.5, 0.5]) == \
            pytest.approx(np.sqrt(a * b))

    def test_product_is_most_conservative(self):
        # product <= geometric <= mean, min <= others (AM-GM family).
        features = {"a": 0.6, "b": 0.4}
        product = make_pipeline("product").evaluate(features)
        geometric = make_pipeline("geometric").evaluate(features)
        mean = make_pipeline("mean").evaluate(features)
        assert product <= geometric + 1e-12 <= mean + 1e-12

    def test_unknown_composition_rejected(self):
        with pytest.raises(ValueError):
            make_pipeline("median")


class TestManagement:
    def test_stage_names_preserve_order(self):
        assert make_pipeline().stage_names == ("a", "b")

    def test_stage_access_and_reprogram(self):
        pipeline = make_pipeline()
        before = pipeline.evaluate({"a": 0.5, "b": 5.0})
        pipeline.program_stage("b", prog_pcam(4.0, 4.9, 5.1, 6.0))
        after = pipeline.evaluate({"a": 0.5, "b": 5.0})
        assert before == 0.0
        assert after > 0.0

    def test_unknown_stage_rejected(self):
        with pytest.raises(KeyError):
            make_pipeline().stage("z")

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ValueError):
            PCAMPipeline({})

    def test_len_and_repr(self):
        pipeline = make_pipeline()
        assert len(pipeline) == 2
        assert "product" in repr(pipeline)

    def test_evaluate_with_energy_ideal_stages_free(self):
        probability, energy = make_pipeline().evaluate_with_energy(
            {"a": 0.5, "b": 0.5})
        assert energy == 0.0
        assert probability == pytest.approx(
            make_pipeline().evaluate({"a": 0.5, "b": 0.5}))

    def test_device_backed_pipeline_charges_energy(self, rng):
        from repro.device.variability import VariabilityModel
        pipeline = PCAMPipeline.from_params(
            {"a": prog_pcam(0.5, 1.0, 2.0, 2.5)},
            device_backed=True,
            variability=VariabilityModel.ideal(), rng=rng)
        probability, energy = pipeline.evaluate_with_energy([1.5])
        assert energy > 0.0
        assert probability == pytest.approx(1.0, abs=0.05)
        assert pipeline.programming_energy_j() > 0.0


# ----------------------------------------------------------------------
# The stacked kernel: uniform columns, own rows and the constants cache
# ----------------------------------------------------------------------
P3 = prog_pcam(0.2, 0.9, 1.1, 1.8)
COMPOSITION_NAMES = ["product", "min", "geometric", "mean"]


def make_stack(composition="product", params=(P1, P2, P3)):
    return PCAMPipeline.from_params(
        {f"s{i}": p for i, p in enumerate(params)},
        composition=composition)


def uniform_batch(pipeline, value, n):
    return {name: np.full(n, value) for name in pipeline.stage_names}


@st.composite
def arbitrary_params(draw):
    """Valid params, canonical slopes NOT required, ramps may be
    degenerate (zero width)."""
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


class TestUniformEvaluation:
    @pytest.mark.parametrize("composition", COMPOSITION_NAMES)
    @settings(max_examples=120, deadline=None)
    @given(params=st.lists(arbitrary_params(), min_size=1, max_size=8),
           value=st.floats(-20.0, 20.0, allow_nan=False),
           n=st.integers(2, 64))
    def test_one_column_equals_n_columns(self, composition, params,
                                         value, n):
        pipeline = make_stack(composition, params)
        expected = pipeline.evaluate_batch(uniform_batch(pipeline, value, n))
        assert np.all(expected == expected[0])
        # Bit-exact, no tolerance: one column, its uniform broadcast,
        # and n columns agree.
        one = pipeline.evaluate_batch(uniform_batch(pipeline, value, 1))
        assert one[0] == expected[0]
        got = pipeline.evaluate_uniform([value] * len(params), count=n)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("composition", COMPOSITION_NAMES)
    def test_column_count_never_changes_a_column(self, composition):
        # Eight stages: np.mean sums one column pairwise but wider
        # matrices row by row, so a plain np.mean fails this for mean.
        rng = np.random.default_rng(5)
        params = [prog_pcam(0.0, 0.3, 0.6, 1.0, pmin=float(pmin))
                  for pmin in rng.uniform(0.0, 0.9, 8)]
        pipeline = make_stack(composition, params)
        matrix = rng.uniform(0.0, 0.3, (400, 8))
        wide = pipeline.evaluate_batch(matrix)
        narrow = np.concatenate([pipeline.evaluate_batch(matrix[i:i + 1])
                                 for i in range(len(matrix))])
        assert np.array_equal(wide, narrow)

    @pytest.mark.parametrize("composition", COMPOSITION_NAMES)
    def test_healthy_stages_evaluate_one_column(self, composition,
                                                monkeypatch):
        pipeline = make_stack(composition)
        widths = []
        compose = pipeline._compose_batch
        monkeypatch.setattr(pipeline, "_compose_batch", lambda matrix: (
            widths.append(matrix.shape[1]), compose(matrix))[1])
        got = pipeline.evaluate_uniform([0.5, 0.5, 0.5], count=1000)
        assert widths == [1]  # the kernel evaluated one column
        assert got.shape == (1000,)
        assert np.all(got == pipeline.evaluate([0.5, 0.5, 0.5]))

    def test_counters_advance_like_n_rows(self):
        pipeline = make_stack()
        pipeline.evaluate_uniform([0.5, 0.5, 0.5], count=17)
        for name in pipeline.stage_names:
            assert pipeline.stage(name).evaluations == 17

    def test_count_validation_guards_accounting(self):
        pipeline = make_stack()
        with pytest.raises(ValueError, match="count must be >= 0"):
            pipeline.evaluate_uniform([0.5, 0.5, 0.5], count=-1)
        assert pipeline.stage("s0").evaluations == 0


def read_noise_twins(seed=3):
    """Two identical pipelines carrying identically seeded read noise."""
    twins = []
    for _ in range(2):
        pipeline = make_stack()
        FaultInjector(TransientReadNoise(sigma=0.05), cell_fraction=0.5,
                      rng=np.random.default_rng(seed)) \
            .inject_pipeline(pipeline)
        twins.append(pipeline)
    return twins


class TestOwnRows:
    """Stages the kernel cannot express keep their own response_array."""

    def test_faulted_cell_keeps_its_own_row(self):
        uniform, reference = read_noise_twins()
        got = uniform.evaluate_uniform([0.5, 0.5, 0.5], count=12)
        expected = reference.evaluate_batch(
            uniform_batch(reference, 0.5, 12))
        # The noisy stage drew one value per packet, in order.
        assert np.array_equal(got, expected)
        assert len(set(got.tolist())) > 1
        for name in uniform.stage_names:
            assert uniform.stage(name).evaluations == \
                reference.stage(name).evaluations == 12

    def test_nonlinear_cell_keeps_its_own_row(self):
        pipeline = PCAMPipeline({
            "a": PCAMCell(P1),
            "b": PCAMCell(prog_pcam(0.0, 1.0, 2.0, 3.0),
                          nonlinearity="sigmoid")})
        got = pipeline.evaluate_uniform([0.4, 0.4], count=5)
        sigmoid = PCAMCell(prog_pcam(0.0, 1.0, 2.0, 3.0),
                           nonlinearity="sigmoid").response(0.4)
        assert np.array_equal(got, np.full(5, PCAMCell(P1).response(0.4)
                                           * sigmoid))
        assert pipeline.stage("b").evaluations == 5

    def test_subclassed_cell_keeps_its_own_row(self):
        class RecordingCell(PCAMCell):
            seen = []

            def response_array(self, values):
                self.seen.append(np.array(values))
                return super().response_array(values)

        pipeline = PCAMPipeline({"a": RecordingCell(P1),
                                 "b": PCAMCell(P2)})
        got = pipeline.evaluate_uniform([0.5, 0.5], count=4)
        assert [v.tolist() for v in RecordingCell.seen] == [[0.5] * 4]
        assert np.array_equal(
            got, pipeline.evaluate_batch({"a": np.full(4, 0.5),
                                          "b": np.full(4, 0.5)}))


class TestKernelCache:
    def test_reprogram_refreshes_the_constants(self):
        pipeline = make_stack()
        pipeline.evaluate_uniform([0.75] * 3, count=2)
        fresh = prog_pcam(0.0, 0.5, 1.0, 1.5)
        pipeline.program_stage("s1", fresh)
        expected = make_stack(params=(P1, fresh, P3)).evaluate([0.75] * 3)
        assert pipeline.evaluate_uniform([0.75] * 3, count=2)[0] == expected

    def test_fault_injection_and_clearing_refresh_the_stack(self):
        pipeline = make_stack()
        clean = pipeline.evaluate_uniform([0.5] * 3, count=3)[0]
        cell = pipeline.stage("s0")
        cell.inject_fault(StuckAtFault(state="hrs").materialise(
            cell.params, np.random.default_rng(0)))
        stuck = pipeline.evaluate_uniform([0.5] * 3, count=3)
        assert stuck[0] != clean
        assert np.array_equal(stuck, pipeline.evaluate_batch(
            uniform_batch(pipeline, 0.5, 3)))
        cell.clear_fault()
        assert pipeline.evaluate_uniform([0.5] * 3, count=3)[0] == clean

    def test_attached_tracer_keeps_the_outputs(self):
        plain, observed = make_stack(), make_stack()
        obs = Observability()
        observed.tracer, observed.profiler = obs.tracer, obs.profiler
        features = np.random.default_rng(2).uniform(-1.0, 3.0, (9, 3))
        assert np.array_equal(observed.evaluate_batch(features),
                              plain.evaluate_batch(features))
        assert np.array_equal(observed.evaluate_uniform([0.6] * 3, 5),
                              plain.evaluate_uniform([0.6] * 3, 5))
        names = [span.name for span in obs.tracer.finished]
        assert names.count("pcam.evaluate_batch") == 2
        for name in observed.stage_names:
            assert names.count(f"pcam.stage.{name}") == 2

    def test_profiler_records_the_uniform_evaluation(self):
        pipeline = make_stack()
        obs = Observability()
        pipeline.profiler = obs.profiler
        pipeline.evaluate_uniform([0.5] * 3, count=8)
        pipeline.evaluate_batch(uniform_batch(pipeline, 0.5, 8))
        assert obs.profiler.site_histogram(
            "pcam.evaluate_batch").count == 2

    def test_clip_flip_refreshes_the_constants(self):
        # Non-canonical steep ramp: the rail clip changes the output.
        steep = prog_pcam(0.0, 1.0, 2.0, 3.0, sa=3.0, pmin=0.2,
                          pmax=0.8)
        pipeline = make_stack(params=(steep,))
        clipped = pipeline.evaluate_uniform([0.9], count=4)[0]
        pipeline.stage("s0").clip_to_rails = False
        unclipped = pipeline.evaluate_uniform([0.9], count=4)[0]
        raw = PCAMCell(steep, clip_to_rails=False).response(0.9)
        assert unclipped == raw != clipped

    def test_nonlinearity_flip_moves_the_stage_to_its_own_row(self):
        pipeline = make_stack()
        on_ramps = [0.5, -0.5, 1.0]
        linear = pipeline.evaluate_uniform(on_ramps, count=2)[0]
        pipeline.stage("s1").nonlinearity = "sigmoid"
        shaped = pipeline.evaluate_uniform(on_ramps, count=2)
        expected = PCAMPipeline({
            "s0": PCAMCell(P1),
            "s1": PCAMCell(P2, nonlinearity="sigmoid"),
            "s2": PCAMCell(P3)}).evaluate(on_ramps)
        assert shaped[0] == expected != linear
