"""Unit tests for the analog-CAM subsystem (cells, bank, compiler).

The property suite (``test_acam_properties.py``) carries the
differential exactness argument; this file pins the concrete device
semantics — intervals as pCAM programmings, bank search bookkeeping,
the robustness layer's faults and oracle on the bank's pCAM rows, and
the energy/comparison arithmetic — with hand-checkable cases.
"""

import numpy as np
import pytest

from repro.acam import (
    ACAM_SEARCH_ACCOUNT,
    ACAMArray,
    ACAMClassifier,
    ACAMEnergyModel,
    ACAMInterval,
    UNBOUNDED,
    build_energy_table,
    classifier_spec_from_tree,
    energy_table_json,
    format_energy_table,
    published_acam_energy,
    reference_classifier,
    tree_paths,
)
from repro.acam.comparison import (
    DIGITAL_TREE_MOVEMENT_FACTOR,
    prefix_cover_count,
    tcam_rows_for_paths,
)
from repro.core.pcam_cell import PCAMCell
from repro.energy.ledger import EnergyLedger
from repro.netfunc.decision_tree import CARTTree, TreeNode
from repro.robustness.injector import FaultInjector
from repro.robustness.models import ConductanceDrift, StuckAtFault
from repro.robustness.oracle import DifferentialOracle


def two_level_tree() -> CARTTree:
    """x0 <= 1 -> leaf A; else x1 <= 2 -> leaf B; else leaf C."""
    root = TreeNode(
        feature=0, threshold=1.0,
        left=TreeNode(prediction=0),
        right=TreeNode(feature=1, threshold=2.0,
                       left=TreeNode(prediction=1),
                       right=TreeNode(prediction=2)))
    return CARTTree.from_root(root, n_features=2)


def compiled(tree: CARTTree, names, **skirt) -> ACAMClassifier:
    """A fitted tree compiled into the aCAM classifier."""
    return ACAMClassifier(classifier_spec_from_tree(tree, names, **skirt))


# ----------------------------------------------------------------------
# Intervals and cells
# ----------------------------------------------------------------------
class TestInterval:
    def test_validation(self):
        with pytest.raises(ValueError, match="lo <= hi"):
            ACAMInterval(lo=2.0, hi=1.0)
        with pytest.raises(ValueError, match="finite"):
            ACAMInterval(lo=float("inf"))
        with pytest.raises(ValueError, match="margin"):
            ACAMInterval(lo=0.0, hi=1.0, margin=-1.0)
        with pytest.raises(ValueError, match="sharpness"):
            ACAMInterval(lo=0.0, hi=1.0, sharpness=0.0)

    @pytest.mark.parametrize("field, value", [
        ("margin", float("inf")), ("margin", float("nan")),
        ("sharpness", float("inf")), ("sharpness", float("nan"))])
    def test_non_finite_skirt_is_rejected(self, field, value):
        # An infinite margin searched NaN probabilities outside the
        # window; NaN and an infinite sharpness silently zeroed it.
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ACAMInterval(lo=0.0, hi=1.0, **{field: value})

    def test_window_is_the_interval(self):
        params = ACAMInterval(lo=0.5, hi=2.5).to_pcam_params()
        assert params.m2 == 0.5
        assert params.m3 == 2.5

    def test_wildcard_sides_use_the_sentinel(self):
        params = ACAMInterval(lo=None, hi=3.0).to_pcam_params()
        assert params.m1 == params.m2 == -UNBOUNDED
        below = ACAMInterval(lo=-2.0, hi=None).to_pcam_params()
        assert below.m3 == below.m4 == UNBOUNDED

    def test_margin_extends_only_finite_sides(self):
        params = ACAMInterval(lo=None, hi=1.0, margin=0.5,
                              sharpness=2.0).to_pcam_params()
        assert params.m1 == params.m2  # wildcard side has no skirt
        assert params.m4 == pytest.approx(1.25)  # 1.0 + 0.5/2.0

    def test_contains_is_closed_on_both_bounds(self):
        interval = ACAMInterval(lo=1.0, hi=2.0)
        inside = interval.contains(np.array([0.99, 1.0, 1.5, 2.0, 2.01]))
        assert inside.tolist() == [False, True, True, True, False]

    def test_wildcard_contains_everything(self):
        assert ACAMInterval.wildcard().contains(
            np.array([-1e9, 0.0, 1e9])).all()


class TestCell:
    """An interval is stored in a plain pCAM cell, programmed with
    ``to_pcam_params``; the cell's ``intended_params`` remember it."""

    def test_deterministic_inside_graded_outside(self):
        cell = PCAMCell(
            ACAMInterval(lo=0.0, hi=1.0, margin=0.5).to_pcam_params())
        assert cell.response(0.5) == 1.0
        assert cell.response(0.0) == 1.0 and cell.response(1.0) == 1.0
        ramp = cell.response(1.2)
        assert 0.0 < ramp < 1.0
        assert cell.response(2.0) < ramp

    def test_fault_preserves_intended_interval(self):
        interval = ACAMInterval(lo=0.0, hi=1.0)
        cell = PCAMCell(interval.to_pcam_params())
        model = StuckAtFault(state="hrs")
        cell.inject_fault(model.materialise(
            cell.intended_params, np.random.default_rng(0)))
        assert cell.fault is not None
        assert cell.intended_params == interval.to_pcam_params()
        assert cell.response(0.5) < 1.0  # hrs pins the response low
        cell.clear_fault()
        assert cell.fault is None
        assert cell.response(0.5) == 1.0

    def test_reprogramming_replaces_the_window(self):
        bank = ACAMArray(["x"])
        bank.add_row([ACAMInterval(lo=0.0, hi=1.0)])
        assert bank.search({"x": 0.5}).matched
        bank.pcam.word(0).stage("x").program(
            ACAMInterval(lo=5.0, hi=6.0).to_pcam_params())
        assert bank.search({"x": 5.5}).matched
        assert bank.search({"x": 0.5}).best_probability == 0.0


# ----------------------------------------------------------------------
# The bank
# ----------------------------------------------------------------------
@pytest.fixture
def small_bank() -> ACAMArray:
    bank = ACAMArray(["x", "y"])
    bank.add_row([ACAMInterval(hi=1.0), ACAMInterval(hi=2.0)])
    bank.add_row([ACAMInterval(hi=1.0), ACAMInterval(lo=2.0)])
    bank.add_row([ACAMInterval(lo=1.0), ACAMInterval()])
    return bank


class TestBank:
    def test_geometry_validation(self):
        with pytest.raises(ValueError, match="at least one field"):
            ACAMArray([])
        with pytest.raises(ValueError, match="duplicate"):
            ACAMArray(["x", "x"])
        bank = ACAMArray(["x"])
        with pytest.raises(ValueError, match="arity"):
            bank.add_row([ACAMInterval(), ACAMInterval()])
        with pytest.raises(KeyError, match="missing"):
            bank.add_row({"y": ACAMInterval()})
        with pytest.raises(IndexError):
            bank.pcam.word(0)
        with pytest.raises(RuntimeError, match="empty"):
            bank.search({"x": 0.0})

    def test_len_and_threshold_expose_geometry(self, small_bank):
        assert len(small_bank) == small_bank.n_rows == 3
        assert small_bank.match_threshold == 0.99

    def test_mapping_rows_reorder_to_field_order(self):
        bank = ACAMArray(["x", "y"])
        bank.add_row({"y": ACAMInterval(lo=5.0),
                      "x": ACAMInterval(hi=1.0)})
        row = bank.pcam.word(0)
        assert row.stage("x").intended_params.m3 == 1.0
        assert row.stage("y").intended_params.m2 == 5.0

    def test_search_matches_the_right_rows(self, small_bank):
        result = small_bank.search({"x": 0.5, "y": 0.5})
        assert result.best_row == 0
        assert result.matched
        result = small_bank.search({"x": 0.5, "y": 3.0})
        assert result.best_row == 1
        result = small_bank.search({"x": 2.0, "y": -5.0})
        assert result.best_row == 2

    def test_boundary_tie_breaks_to_the_lowest_row(self, small_bank):
        # x=0.5, y=2.0 deterministically matches rows 0 AND 1
        result = small_bank.search({"x": 0.5, "y": 2.0})
        assert result.best_row == 0
        assert result.first_match_row == 0

    def test_matrix_and_mapping_queries_agree(self, small_bank):
        rng = np.random.default_rng(5)
        x, y = rng.uniform(-1, 3, 20), rng.uniform(-1, 5, 20)
        a = small_bank.search_batch({"x": x, "y": y})
        b = small_bank.search_batch(np.column_stack([x, y]))
        np.testing.assert_array_equal(a.probabilities, b.probabilities)
        with pytest.raises(ValueError, match="columns"):
            small_bank.search_batch(np.zeros((4, 3)))

    def test_energy_and_counters(self, small_bank):
        model = small_bank.energy_model
        result = small_bank.search_batch(
            {"x": np.zeros(10), "y": np.zeros(10)})
        assert len(result) == 10
        assert result.energy_j == pytest.approx(
            10 * model.per_classification_j(3, 2))
        assert result.latency_s == model.search_latency_s
        assert small_bank.searches == 10

    def test_ledger_account_is_charged(self):
        ledger = EnergyLedger()
        bank = ACAMArray(["x"], ledger=ledger)
        bank.add_row([ACAMInterval(lo=0.0, hi=1.0)])
        bank.search({"x": 0.5})
        assert ACAM_SEARCH_ACCOUNT == "acam.search"
        assert ledger.account(ACAM_SEARCH_ACCOUNT) == pytest.approx(
            bank.energy_model.per_classification_j(1, 1))

    def test_no_match_reports_minus_one(self):
        bank = ACAMArray(["x"])
        bank.add_row([ACAMInterval(lo=0.0, hi=1.0)])
        result = bank.search({"x": 5.0})
        assert not result.matched
        assert result.first_match_row == -1
        assert result.best_row == 0  # nearest row still reported


def faulted_fields(bank: ACAMArray, index: int) -> set[str]:
    """The fields of one bank row whose cell carries a fault."""
    row = bank.pcam.word(index)
    return {field for field in row.stage_names
            if row.stage(field).fault is not None}


class TestFaultPlans:
    """Faults, the clean twin and the row oracle are the robustness
    layer's, applied to the bank's pCAM rows through ``bank.pcam``."""

    def test_cell_fraction_validation(self):
        with pytest.raises(ValueError, match="fraction"):
            FaultInjector(StuckAtFault(state="lrs"), cell_fraction=1.5)

    def test_plan_is_reproducible(self, small_bank):
        def inject():
            return FaultInjector(
                ConductanceDrift(scale=0.4), cell_fraction=0.5,
                rng=np.random.default_rng(11)).inject_array(
                    small_bank.pcam)

        first = inject()
        FaultInjector.clear_array(small_bank.pcam)
        second = inject()
        assert first.array_cells == second.array_cells
        FaultInjector.clear_array(small_bank.pcam)

    def test_row_restriction(self, small_bank):
        report = FaultInjector(StuckAtFault(state="lrs")).inject_pipeline(
            small_bank.pcam.word(1))
        assert report.stages == ["x", "y"]
        assert faulted_fields(small_bank, 0) == set()
        assert faulted_fields(small_bank, 1) == {"x", "y"}
        FaultInjector.clear_array(small_bank.pcam)
        assert all(faulted_fields(small_bank, index) == set()
                   for index in range(len(small_bank)))

    def test_clone_ideal_sheds_faults(self, small_bank):
        FaultInjector(StuckAtFault(state="hrs")).inject_array(
            small_bank.pcam)
        clone = small_bank.pcam.clone_ideal()
        assert len(clone) == small_bank.n_rows
        assert all(word.stage(field).fault is None
                   for word in clone.words for field in word.stage_names)
        assert clone.search({"x": 0.5, "y": 0.5}).deterministic_indices
        FaultInjector.clear_array(small_bank.pcam)

    def test_probe_grid_spans_finite_bounds(self, small_bank):
        probes = small_bank.probe_grid(64, np.random.default_rng(3))
        assert set(probes) == {"x", "y"}
        assert all(len(p) == 64 for p in probes.values())
        # bounds on x are {1.0}; margin 0.25 of a clamped span
        assert probes["x"].min() < 1.0 < probes["x"].max() + 1.0
        with pytest.raises(ValueError, match="probe"):
            small_bank.probe_grid(0, np.random.default_rng(0))

    def test_healthy_bank_has_zero_deviation(self, small_bank):
        probes = small_bank.probe_grid(32, np.random.default_rng(4))
        for word in small_bank.pcam.words:
            oracle = DifferentialOracle.from_intended(word)
            report = oracle.compare(word, probes)
            assert report.mean_abs_error == 0.0
            assert report.scalar_batch_max_diff < 1e-9
            assert report.within(oracle.envelope)


# ----------------------------------------------------------------------
# Compiler
# ----------------------------------------------------------------------
class TestCompiler:
    def test_paths_are_depth_first_left_first(self):
        paths = tree_paths(two_level_tree())
        assert [p.label for p in paths] == [0, 1, 2]
        assert [p.leaf for p in paths] == [0, 1, 2]
        assert [p.depth for p in paths] == [1, 2, 2]
        assert paths[0].intervals == ((None, 1.0), (None, None))
        assert paths[1].intervals == ((1.0, None), (None, 2.0))
        assert paths[2].intervals == ((1.0, None), (2.0, None))

    def test_nested_constraints_intersect(self):
        root = TreeNode(
            feature=0, threshold=5.0,
            left=TreeNode(feature=0, threshold=2.0,
                          left=TreeNode(prediction=0),
                          right=TreeNode(prediction=1)),
            right=TreeNode(prediction=2))
        paths = tree_paths(CARTTree.from_root(root, n_features=1))
        assert paths[0].intervals == ((None, 2.0),)
        assert paths[1].intervals == ((2.0, 5.0),)
        assert paths[2].intervals == ((5.0, None),)

    def test_compile_tree_one_row_per_leaf(self):
        tree = two_level_tree()
        acam = compiled(tree, ["x0", "x1"])
        assert acam.n_rows == acam.array.n_rows == tree.n_leaves() \
            == len(tree_paths(tree))
        assert acam.labels.tolist() == [0, 1, 2]
        with pytest.raises(ValueError, match="one feature name"):
            classifier_spec_from_tree(tree, ["only_one"])

    def test_one_shot_matches_traversal_on_a_grid(self):
        tree = two_level_tree()
        acam = compiled(tree, ["x0", "x1"])
        grid = np.array([[x0, x1] for x0 in (-1.0, 0.5, 1.0, 1.5, 9.0)
                         for x1 in (-3.0, 1.0, 2.0, 2.5, 8.0)])
        np.testing.assert_array_equal(acam.predict_batch(grid),
                                      tree.predict(grid))
        np.testing.assert_array_equal(acam.predict_leaves(grid),
                                      tree.predict_leaves(grid))
        assert acam.predict(grid[7]) == tree.predict_one(grid[7])

    def test_chunked_prediction_is_invariant(self):
        tree = two_level_tree()
        acam = compiled(tree, ["x0", "x1"], margin=1.0)
        rng = np.random.default_rng(8)
        batch = rng.uniform(-2, 10, size=(101, 2))
        whole = acam.predict_batch(batch)
        for chunk in (1, 7, 64, 1000):
            np.testing.assert_array_equal(
                acam.predict_batch(batch, chunk_size=chunk), whole)
        with pytest.raises(ValueError, match="chunk"):
            acam.predict_batch(batch, chunk_size=0)
        assert acam.predict_leaves(np.zeros((0, 2))).tolist() == []

    def test_feature_arity_checked(self):
        acam = compiled(two_level_tree(), ["x0", "x1"])
        with pytest.raises(ValueError, match="columns"):
            acam.predict_batch(np.zeros((3, 5)))

    def test_digital_leaf_numbering_matches_paths(self):
        tree = two_level_tree()
        assert tree.predict_leaf_one([0.0, 0.0]) == 0
        assert tree.predict_leaf_one([2.0, 0.0]) == 1
        assert tree.predict_leaf_one([2.0, 9.0]) == 2

    def test_from_root_validates(self):
        with pytest.raises(ValueError, match="n_features"):
            CARTTree.from_root(TreeNode(prediction=0), 0)
        with pytest.raises(RuntimeError, match="not been fitted"):
            CARTTree().root


# ----------------------------------------------------------------------
# Energy model and comparison arithmetic
# ----------------------------------------------------------------------
class TestEnergy:
    def test_published_model_figures(self):
        model = published_acam_energy()
        # 4 rows x 3 cells x 0.01 fJ + 4 rows x 0.1 fJ = 0.52 fJ
        assert model.per_classification_j(4, 3) == pytest.approx(5.2e-16)
        assert model.search_energy_j(4, 3, n_queries=10) \
            == pytest.approx(5.2e-15)

    def test_validation(self):
        with pytest.raises(ValueError, match="cell_search_j"):
            ACAMEnergyModel(cell_search_j=-1.0)
        with pytest.raises(ValueError, match="geometry"):
            published_acam_energy().per_classification_j(-1, 3)
        with pytest.raises(ValueError, match="queries"):
            published_acam_energy().search_energy_j(1, 1, -1)

    def test_prefix_cover_known_values(self):
        # [1, 6] over 3 bits -> 001, 01x, 10x, 110 = 4 prefixes
        assert prefix_cover_count(1, 6, 3) == 4
        assert prefix_cover_count(0, 7, 3) == 1   # full space: one X row
        assert prefix_cover_count(3, 3, 3) == 1   # a point: exact row
        assert prefix_cover_count(0, 3, 3) == 1   # aligned block
        # worst case of width W is 2(W-1): [1, 2^W - 2]
        assert prefix_cover_count(1, 254, 8) == 14
        with pytest.raises(ValueError, match="outside"):
            prefix_cover_count(0, 8, 3)

    def test_tcam_expansion_multiplies_across_features(self):
        paths = tree_paths(two_level_tree())
        rows = tcam_rows_for_paths(paths, [(0.0, 8.0), (0.0, 8.0)],
                                   bits=3)
        # every leaf expands to >= 1 row; ranges blow up the count
        assert rows > len(paths)

    def test_table_has_acam_cheapest(self):
        tree, _, ranges = reference_classifier()
        table = build_energy_table(tree, ranges)
        names = [row.name for row in table]
        assert names == ["aCAM one-shot", "digital tree walk",
                         "TCAM range-expanded"]
        acam, digital, tcam = table
        assert acam.energy_fj_per_classification \
            < digital.energy_fj_per_classification
        assert acam.energy_fj_per_classification \
            < tcam.energy_fj_per_classification
        # the movement factor explains most of the digital gap
        assert digital.energy_fj_per_classification \
            > DIGITAL_TREE_MOVEMENT_FACTOR

    def test_table_validation(self):
        tree, _, ranges = reference_classifier()
        with pytest.raises(ValueError, match="bit"):
            build_energy_table(tree, ranges, bits=0)
        with pytest.raises(ValueError, match="range per feature"):
            build_energy_table(tree, ranges[:1])

    def test_render_and_json(self):
        tree, _, ranges = reference_classifier()
        table = build_energy_table(tree, ranges)
        lines = format_energy_table(table)
        assert any("aCAM one-shot" in line for line in lines)
        assert "cheapest" in lines[-1]
        payload = energy_table_json(table)
        assert payload["cheapest"] == "aCAM one-shot"
        assert len(payload["rows"]) == 3
