"""Optional aCAM traffic-classification stage of the switch.

The paper's cognitive network functions go beyond match-action
forwarding: Section 7's decision-tree inference runs *inside* the
dataplane, classifying flows in one analog search per chunk.  This
module packages that as an optional pipeline stage:

* :class:`ClassifierSpec` — a frozen, declarative description of the
  compiled bank (features, leaf rows, class-to-port steering), so it
  can ride along on :class:`~repro.dataplane.switch.SwitchSpec`;
* :func:`classifier_spec_from_tree` — flatten a fitted
  :class:`~repro.netfunc.decision_tree.CARTTree` into that spec;
* :class:`ACAMClassifier` — the spec realised as an
  :class:`~repro.acam.ACAMArray` bank (built by the same
  :func:`~repro.acam.compiler.compile_rows` that compiles trees) plus
  packet feature extraction;
* :class:`ClassificationStage` — the stage the processor runs
  between the digital match-action tables and egress when a
  classifier is installed; it re-steers classified packets to
  per-class egress ports and charges its search joules to the
  processor's ledger under ``acam.search`` (so energy attribution and
  observability pick it up like any other stage).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.acam.cell import check_skirt
from repro.acam.compiler import Interval, compile_rows, tree_paths
from repro.dataplane.fastpath import PacketBatch, first_appearance_counts
from repro.energy.ledger import EnergyLedger
from repro.netfunc.decision_tree import CARTTree

__all__ = ["ACAMClassifier", "ClassificationStage", "ClassifierSpec",
           "classifier_spec_from_tree"]

#: Ledger account every bank search is charged to.
ACAM_SEARCH_ACCOUNT = "acam.search"


@dataclass(frozen=True)
class ClassifierSpec:
    """Declarative description of a compiled aCAM classifier.

    ``rows`` holds one ``(class label, per-feature intervals)`` entry
    per stored row — typically one per decision-tree leaf, in
    depth-first order.  ``class_to_port`` maps class labels to egress
    ports; classes without an entry keep the routing decision the
    digital tables already made.  Everything is tuples so the spec is
    hashable and can live on the frozen
    :class:`~repro.dataplane.switch.SwitchSpec`.
    """

    features: tuple[str, ...]
    rows: tuple[tuple[int, tuple[Interval, ...]], ...]
    class_to_port: tuple[tuple[int, int], ...] = ()
    margin: float = 0.0
    sharpness: float = 1.0
    name: str = "acam_classifier"

    def __post_init__(self) -> None:
        if not self.features:
            raise ValueError("classifier needs at least one feature")
        if not self.rows:
            raise ValueError("classifier needs at least one row")
        for label, intervals in self.rows:
            if len(intervals) != len(self.features):
                raise ValueError(
                    f"row for class {label!r} has {len(intervals)} "
                    f"intervals, spec has {len(self.features)} "
                    f"features")
        labels = {label for label, _ in self.rows}
        for label, port in self.class_to_port:
            if label not in labels:
                raise ValueError(
                    f"steering for unknown class {label!r}")
            if port < 0:
                raise ValueError(f"port must be >= 0: {port!r}")
        check_skirt(self.margin, self.sharpness)

    @property
    def ports(self) -> tuple[int, ...]:
        """Every egress port the steering map can send traffic to."""
        return tuple(port for _, port in self.class_to_port)


def classifier_spec_from_tree(tree: CARTTree,
                              features: Sequence[str],
                              class_to_port: Sequence[tuple[int, int]]
                              = (), *,
                              margin: float = 0.0,
                              sharpness: float = 1.0,
                              name: str = "acam_classifier"
                              ) -> ClassifierSpec:
    """Flatten a fitted tree's leaves into a classifier spec."""
    if len(features) != tree.n_features:
        raise ValueError(
            f"need one feature name per tree feature: "
            f"{len(features)} != {tree.n_features}")
    rows = tuple((path.label, path.intervals)
                 for path in tree_paths(tree))
    return ClassifierSpec(features=tuple(features), rows=rows,
                          class_to_port=tuple(class_to_port),
                          margin=margin, sharpness=sharpness,
                          name=name)


class ACAMClassifier:
    """A :class:`ClassifierSpec` realised as a searchable aCAM bank."""

    def __init__(self, spec: ClassifierSpec,
                 ledger: EnergyLedger | None = None) -> None:
        self.spec = spec
        self.array, self.labels = compile_rows(
            spec.features, spec.rows, margin=spec.margin,
            sharpness=spec.sharpness, ledger=ledger,
            account=ACAM_SEARCH_ACCOUNT)
        labels = self.labels.tolist()
        code_of_label = {label: row for row, label in enumerate(labels)}
        port_for_class = dict(spec.class_to_port)
        #: Per row: the code of its class (the last row carrying the
        #: same label), so rows of one class book one telemetry entry.
        self.row_codes = np.array([code_of_label[label]
                                   for label in labels], dtype=np.intp)
        #: Per code: the class label as a telemetry verdict name.
        self.code_names = [str(label) for label in labels]
        #: Per row: the egress port its class steers to, or -1.
        self.row_ports = np.array([port_for_class.get(label, -1)
                                   for label in labels], dtype=np.intp)

    def features_of_batch(self, batch) -> np.ndarray:
        """The (rows, features) matrix, one column gather per feature."""
        batch = PacketBatch.of(batch)
        if not len(batch):
            return np.zeros((0, len(self.spec.features)))
        return np.column_stack([batch.feature_column(name)
                                for name in self.spec.features])

    def classify_batch(self, batch) -> tuple[np.ndarray, np.ndarray]:
        """(best rows, deterministic-match flags) for a chunk.

        ``batch`` is a :class:`PacketBatch` or a packet sequence.
        ``labels``, ``row_codes`` and ``row_ports`` map the rows to
        their class, telemetry code and steering port.
        """
        matrix = self.features_of_batch(batch)
        result = self.array.search_batch(matrix)
        deterministic = result.deterministic_mask[
            np.arange(len(matrix)), result.best_rows]
        return result.best_rows, deterministic


class ClassificationStage:
    """One-shot aCAM classification between the MATs and egress.

    Every surviving packet is classified by the switch's installed
    :class:`ACAMClassifier` in a single bank search per chunk; classes
    with a steering entry override the egress port the digital tables
    resolved.  Search energy lands on the shared ledger under
    ``acam.search``, which the processor's energy attribution books to
    this stage.
    """

    name = "acam_classifier"
    span_name = "dataplane.acam_classify"

    def __init__(self, switch) -> None:
        self.switch = switch

    def process_batch(self, batch: PacketBatch,
                      ports: np.ndarray) -> np.ndarray:
        """The chunk's egress ports after per-class steering."""
        classifier = self.switch.classifier
        rows, deterministic = classifier.classify_batch(batch)
        names = classifier.code_names
        self.switch.telemetry.record_lookup_batch(
            "acam_classifier", len(batch),
            int(np.count_nonzero(deterministic)),
            [(names[code], count) for code, count
             in first_appearance_counts(classifier.row_codes[rows])])
        steering = classifier.row_ports[rows]
        return np.where(steering >= 0, steering, ports)
