"""The aCAM classification stage: spec, wiring, steering, energy.

Covers the switch side of the aCAM classifier: the declarative
:class:`ClassifierSpec`, its compilation from a fitted tree, the
``SwitchSpec`` port validation, the stage running between the digital
MATs and egress, per-class steering, scalar/batch parity, and the
ledger account the search joules land on.
"""

from __future__ import annotations

import pytest

from repro.acam import (
    ACAM_SEARCH_ACCOUNT,
    ACAMClassifier,
    ClassifierSpec,
    classifier_spec_from_tree,
)
from repro.dataplane import SwitchSpec, Verdict, build_switch
from repro.netfunc.decision_tree import CARTTree, TreeNode
from repro.observability import Observability
from repro.packet import Packet


def class_tree() -> CARTTree:
    """protocol <= 11.5 ? (size <= 1100 ? class 1 : class 2) : class 0."""
    root = TreeNode(
        feature=2, threshold=11.5,
        left=TreeNode(feature=0, threshold=1100.0,
                      left=TreeNode(prediction=1),
                      right=TreeNode(prediction=2)),
        right=TreeNode(prediction=0))
    return CARTTree.from_root(root, n_features=3)


FEATURES = ("size_bytes", "dst_port", "protocol")
STEERING = ((0, 0), (1, 1), (2, 2))


def spec(**overrides) -> ClassifierSpec:
    base = dict(class_to_port=STEERING, margin=2.0)
    base.update(overrides)
    return classifier_spec_from_tree(class_tree(), FEATURES, **base)


def packet(size: int, protocol: int, dst: str = "10.1.2.3") -> Packet:
    return Packet(size_bytes=size,
                  fields={"src_ip": "1.2.3.4", "dst_ip": dst,
                          "src_port": 1000, "dst_port": 80,
                          "protocol": protocol})


def switch_spec(**overrides) -> SwitchSpec:
    base = dict(n_ports=3, routes=(("10.0.0.0/8", 2),),
                classifier=spec())
    base.update(overrides)
    return SwitchSpec(**base)


class TestClassifierSpec:
    def test_needs_features_and_rows(self):
        with pytest.raises(ValueError, match="at least one feature"):
            ClassifierSpec(features=(), rows=((0, ()),))
        with pytest.raises(ValueError, match="at least one row"):
            ClassifierSpec(features=("f",), rows=())

    def test_row_arity_must_match_features(self):
        with pytest.raises(ValueError, match="has 1 intervals"):
            ClassifierSpec(features=("a", "b"),
                           rows=((0, ((None, 1.0),)),))

    def test_steering_must_name_known_classes(self):
        with pytest.raises(ValueError, match="unknown class 9"):
            ClassifierSpec(features=("f",),
                           rows=((0, ((None, None),)),),
                           class_to_port=((9, 0),))

    def test_a_class_steers_to_one_port(self):
        with pytest.raises(ValueError, match="class 0 is steered more"):
            ClassifierSpec(features=("f",),
                           rows=((0, ((None, 1.0),)),
                                 (1, ((1.0, None),))),
                           class_to_port=((0, 1), (0, 2)))
        ports = ACAMClassifier(spec()).row_ports
        assert ports.tolist() == [1, 2, 0]

    def test_steering_port_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="port must be >= 0"):
            ClassifierSpec(features=("f",),
                           rows=((0, ((None, None),)),),
                           class_to_port=((0, -1),))

    def test_margin_and_sharpness_validated(self):
        with pytest.raises(ValueError, match="margin"):
            ClassifierSpec(features=("f",),
                           rows=((0, ((None, None),)),), margin=-1.0)
        with pytest.raises(ValueError, match="sharpness"):
            ClassifierSpec(features=("f",),
                           rows=((0, ((None, None),)),), sharpness=0.0)

    @pytest.mark.parametrize("field, value", [
        ("margin", float("inf")), ("margin", float("nan")),
        ("sharpness", float("inf")), ("sharpness", float("nan"))])
    def test_non_finite_skirt_is_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ClassifierSpec(features=("f",),
                           rows=((0, ((None, None),)),), **{field: value})

    def test_ports_property_lists_steered_ports(self):
        assert spec().ports == (0, 1, 2)

    def test_from_tree_emits_one_row_per_leaf_in_dfs_order(self):
        compiled = spec()
        assert compiled.features == FEATURES
        assert [label for label, _ in compiled.rows] == [1, 2, 0]
        # leaf 0: protocol <= 11.5 and size <= 1100
        label, intervals = compiled.rows[0]
        assert intervals[0] == (None, 1100.0)
        assert intervals[2] == (None, 11.5)

    def test_from_tree_checks_feature_arity(self):
        with pytest.raises(ValueError, match="one feature name"):
            classifier_spec_from_tree(class_tree(), ("a", "b"))


class TestSwitchSpecValidation:
    def test_classifier_ports_must_fit_the_switch(self):
        with pytest.raises(ValueError,
                           match="classifier steers to port 2"):
            switch_spec(n_ports=2, routes=(("10.0.0.0/8", 0),))

    def test_in_range_steering_accepted(self):
        assert switch_spec().classifier is not None


class TestWiring:
    @staticmethod
    def stage_spans(processor, obs):
        processor.process_batch([packet(200, 6), packet(1400, 6)],
                                now=0.0)
        [chunk] = obs.tracer.spans("dataplane.process_batch")
        return [span.name for span in obs.tracer.children_of(chunk)]

    def test_stage_slots_between_mats_and_egress(self):
        obs = Observability()
        processor = build_switch(switch_spec(), observability=obs)
        assert self.stage_spans(processor, obs) == [
            "dataplane.digital_mats", "dataplane.acam_classify",
            "dataplane.egress"]
        assert list(processor.energy_by_stage()) == [
            "digital_mats", "acam_classifier", "egress"]

    def test_classifier_shares_the_processor_ledger(self):
        processor = build_switch(switch_spec())
        assert processor.classifier.array.ledger is processor.ledger

    def test_without_classifier_no_stage_is_added(self):
        obs = Observability()
        processor = build_switch(switch_spec(classifier=None),
                                 observability=obs)
        assert processor.classifier is None
        assert self.stage_spans(processor, obs) == [
            "dataplane.digital_mats", "dataplane.egress"]
        assert "acam_classifier" not in processor.energy_by_stage()


class TestSteering:
    def test_classes_steer_to_their_ports(self):
        processor = build_switch(switch_spec())
        cases = [(packet(200, 17), 0),   # class 0: protocol > 11.5
                 (packet(200, 6), 1),    # class 1: small TCP
                 (packet(1400, 6), 2)]   # class 2: large TCP
        for pkt, want_port in cases:
            result = processor.process(pkt, now=0.0)
            assert result.verdict is Verdict.QUEUED
            assert result.port == want_port

    def test_unmapped_class_keeps_the_digital_route(self):
        unmapped = spec(class_to_port=((1, 1),))
        processor = build_switch(switch_spec(classifier=unmapped))
        # class 0 has no steering entry: the LPM route (port 2) holds.
        result = processor.process(packet(200, 17), now=0.0)
        assert result.verdict is Verdict.QUEUED and result.port == 2
        steered = processor.process(packet(200, 6), now=0.0)
        assert steered.port == 1

    def test_batch_matches_scalar_for_every_packet(self):
        packets = [packet(150 + 37 * i, 6 if i % 3 else 17)
                   for i in range(40)]
        batched = build_switch(switch_spec()).process_batch(
            packets, now=0.0, chunk_size=16)
        scalar_proc = build_switch(switch_spec())
        for pkt, got in zip(packets, batched):
            want = scalar_proc.process(pkt, now=0.0)
            assert got.verdict is want.verdict
            assert got.port == want.port

    def test_dropped_packets_are_not_classified(self):
        processor = build_switch(switch_spec())
        result = processor.process(packet(200, 6, dst="8.8.8.8"),
                                   now=0.0)
        assert result.verdict is Verdict.DROPPED_NO_ROUTE
        assert processor.ledger.breakdown().get(
            ACAM_SEARCH_ACCOUNT, 0.0) == 0.0


class TestEnergyAndTelemetry:
    def test_search_energy_lands_on_the_acam_account(self):
        processor = build_switch(switch_spec())
        processor.process_batch([packet(200, 6) for _ in range(8)],
                                now=0.0)
        breakdown = processor.ledger.breakdown()
        assert breakdown[ACAM_SEARCH_ACCOUNT] > 0.0
        per_search = processor.classifier.array \
            .energy_model.per_classification_j(3, 3)
        assert breakdown[ACAM_SEARCH_ACCOUNT] == \
            pytest.approx(8 * per_search)

    def test_energy_attribution_books_the_stage(self):
        processor = build_switch(switch_spec())
        processor.process_batch([packet(200, 6) for _ in range(4)],
                                now=0.0)
        by_stage = processor.energy_by_stage()
        assert by_stage.get("acam_classifier", 0.0) > 0.0

    def test_classification_is_tallied_per_class(self):
        processor = build_switch(switch_spec())
        processor.process_batch(
            [packet(200, 17), packet(200, 6), packet(1400, 6)],
            now=0.0)
        stats = processor.telemetry.table("acam_classifier")
        assert stats.lookups == 3 and stats.hits == 3
        assert dict(stats.verdicts) == {"0": 1, "1": 1, "2": 1}

    def test_rows_of_one_class_book_one_entry(self):
        """Two rows of class 1 tally as one verdict entry per chunk."""
        small, mid = (None, 500.0), (500.0, 1100.0)
        split = ClassifierSpec(
            features=FEATURES,
            rows=((1, (small, (None, None), (None, 11.5))),
                  (1, (mid, (None, None), (None, 11.5))),
                  (0, ((None, None), (None, None), (11.5, None)))),
            class_to_port=((1, 1),), margin=2.0)
        processor = build_switch(switch_spec(classifier=split))
        booked = []
        record = processor.telemetry.record_lookup_batch

        def spy(table, lookups, hits, verdicts=()):
            verdicts = list(verdicts)
            if table == "acam_classifier":
                booked.append(verdicts)
            record(table, lookups, hits, verdicts)

        processor.telemetry.record_lookup_batch = spy
        results = processor.process_batch(
            [packet(200, 6), packet(800, 6), packet(300, 6),
             packet(200, 17)], now=0.0)
        assert booked == [[("1", 3), ("0", 1)]]
        assert [result.port for result in results] == [1, 1, 1, 2]

