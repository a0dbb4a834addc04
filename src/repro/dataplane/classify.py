"""Optional aCAM traffic-classification stage of the switch.

The paper's cognitive network functions go beyond match-action
forwarding: Section 7's decision-tree inference runs *inside* the
dataplane, classifying flows in one analog search per chunk.
:class:`ClassificationStage` runs that search between the digital
match-action tables and egress when ``build_switch`` has installed an
:class:`~repro.acam.compiler.ACAMClassifier` from the spec's
:class:`~repro.acam.compiler.ClassifierSpec`.
"""

from __future__ import annotations

import numpy as np

from repro.dataplane.fastpath import PacketBatch, first_appearance_counts

__all__ = ["ClassificationStage"]


class ClassificationStage:
    """One-shot aCAM classification between the MATs and egress.

    Classes with a steering entry override the egress port the digital
    tables resolved.  Search energy lands on the shared ledger under
    ``acam.search``, which the processor books to this stage.
    """

    name = "acam_classifier"
    span_name = "dataplane.acam_classify"

    def __init__(self, switch) -> None:
        self.switch = switch

    def process_batch(self, batch: PacketBatch,
                      ports: np.ndarray) -> np.ndarray:
        """The chunk's egress ports after per-class steering."""
        classifier = self.switch.classifier
        rows, deterministic = classifier.classify(np.column_stack(
            [batch.feature_column(name)
             for name in classifier.spec.features]))
        names = classifier.code_names
        self.switch.telemetry.record_lookup_batch(
            "acam_classifier", len(batch),
            int(np.count_nonzero(deterministic)),
            [(names[code], count) for code, count
             in first_appearance_counts(classifier.row_codes[rows])])
        steering = classifier.row_ports[rows]
        return np.where(steering >= 0, steering, ports)
