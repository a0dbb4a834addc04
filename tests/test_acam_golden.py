"""Golden pins for the aCAM energy comparison and fault oracle.

Two committed behaviours:

* the Table-1-style energy table for the seeded reference classifier
  is pinned **byte-for-byte** against ``tests/golden/acam_energy.json``
  — any change to the energy anchors, the compiler's row emission, or
  the TCAM expansion shows up as a diff against a reviewed artifact;
* the differential fault oracle is pinned behaviourally — seeded
  stuck-at faults injected by the robustness
  :class:`~repro.robustness.injector.FaultInjector` into chosen bank
  rows flag exactly those rows under a per-row
  :class:`~repro.robustness.oracle.DifferentialOracle`, while a
  healthy (or cleared) bank stays entirely inside the envelope.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.acam import (
    ACAMClassifier,
    build_energy_table,
    classifier_spec_from_tree,
    energy_table_json,
    format_energy_table,
    reference_classifier,
)
from repro.robustness.injector import FaultInjector
from repro.robustness.models import StuckAtFault
from repro.robustness.oracle import DifferentialOracle

GOLDEN = Path(__file__).parent / "golden" / "acam_energy.json"


@pytest.fixture(scope="module")
def table():
    tree, _, ranges = reference_classifier()
    return build_energy_table(tree, ranges)


class TestEnergyTableGolden:
    def test_table_matches_committed_artifact_byte_for_byte(
            self, table):
        rendered = json.dumps(energy_table_json(table), indent=2,
                              sort_keys=True) + "\n"
        assert rendered == GOLDEN.read_text(), (
            "energy table drifted from tests/golden/acam_energy.json; "
            "if the change is intended, regenerate the artifact and "
            "review the diff")

    def test_acam_is_the_cheapest_design_point(self, table):
        doc = energy_table_json(table)
        assert doc["cheapest"] == "aCAM one-shot"
        acam, = [r for r in table if r.name == "aCAM one-shot"]
        for other in table:
            if other.name == acam.name:
                continue
            assert acam.energy_fj_per_classification \
                < other.energy_fj_per_classification

    def test_rendered_table_names_the_cheapest(self, table):
        lines = format_energy_table(table)
        assert lines[-1] == \
            "(cheapest per classification: aCAM one-shot)"


def inject_rows(bank, model, rows, seed):
    """Fault every cell of the chosen rows from one seeded stream."""
    injector = FaultInjector(model, rng=np.random.default_rng(seed))
    return [injector.inject_pipeline(bank.pcam.word(index))
            for index in rows]


def out_of_envelope(bank, probes):
    """Rows whose pCAM word leaves the default degradation envelope."""
    flagged = []
    for index, word in enumerate(bank.pcam.words):
        oracle = DifferentialOracle.from_intended(word)
        if not oracle.compare(word, probes).within(oracle.envelope):
            flagged.append(index)
    return tuple(flagged)


class TestFaultOracleGolden:
    @pytest.fixture()
    def bank(self):
        tree, names, _ = reference_classifier()
        return ACAMClassifier(classifier_spec_from_tree(tree, names)).array

    @pytest.fixture()
    def probes(self, bank):
        return bank.probe_grid(256, np.random.default_rng(42))

    def test_healthy_bank_stays_inside_the_envelope(
            self, bank, probes):
        assert out_of_envelope(bank, probes) == ()

    def test_targeted_fault_plan_flags_exactly_the_hit_rows(
            self, bank, probes):
        reports = inject_rows(bank, StuckAtFault(state="lrs"), (1, 3),
                              seed=11)
        assert sum(report.n_injected for report in reports) > 0
        assert out_of_envelope(bank, probes) == (1, 3)

    def test_clearing_faults_restores_the_envelope(self, bank, probes):
        inject_rows(bank, StuckAtFault(state="hrs"), (0,), seed=3)
        assert out_of_envelope(bank, probes) != ()
        FaultInjector.clear_array(bank.pcam)
        assert out_of_envelope(bank, probes) == ()
