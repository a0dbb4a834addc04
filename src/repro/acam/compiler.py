"""Tree-to-aCAM compilation and the one aCAM classifier.

Pedretti et al. showed decision-tree inference collapses onto an
analog CAM: every root-to-leaf path is a conjunction of per-feature
threshold constraints — an axis-aligned *box* — and a box is exactly
one aCAM row of interval cells.  Classification of a whole feature
batch is then a single ``search_batch`` instead of a per-sample,
per-node traversal.  :class:`ACAMClassifier` is the one classifier:
a :class:`ClassifierSpec` compiled into a bank, whose one matrix
search serves both tree prediction and the switch's classification
stage.

Equivalence with the digital traversal is exact, not approximate,
and rests on three properties:

1. paths are emitted **depth-first, left child first** — the same
   order :meth:`repro.netfunc.decision_tree.CARTTree.predict_leaf_one`
   numbers leaves;
2. boxes tile the whole feature space (root constraints are
   unbounded), and interval matching is closed on both ends, so a
   query on a split boundary ``x == t`` deterministically matches
   *both* children's boxes — and the argmax tie-break to the lowest
   row index picks the left one, exactly like the digital
   ``x <= t -> left`` rule;
3. analog margin skirts respond strictly below ``pmax``, so a ramp
   can never outrank a row the query deterministically matches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.acam.array import ACAMArray
from repro.acam.cell import ACAMInterval, check_skirt
from repro.energy.ledger import EnergyLedger
from repro.netfunc.decision_tree import CARTTree, TreeNode

__all__ = ["ACAMClassifier", "ClassifierSpec", "TreePath",
           "classifier_spec_from_tree", "compile_rows", "tree_paths"]

#: One feature's ``(lo, hi)`` constraint; ``None`` is unbounded.
Interval = tuple[float | None, float | None]


@dataclass(frozen=True)
class TreePath:
    """One root-to-leaf path flattened to a per-feature box.

    ``intervals[j]`` is the ``(lo, hi)`` constraint accumulated on
    feature ``j`` along the path; ``None`` bounds are unconstrained.
    ``leaf`` is the depth-first (left-first) leaf index — the row
    index the path compiles to.
    """

    leaf: int
    label: int
    depth: int
    intervals: tuple[Interval, ...]


def tree_paths(tree: CARTTree) -> tuple[TreePath, ...]:
    """Flatten every root-to-leaf path, depth-first and left-first."""
    paths: list[TreePath] = []

    def walk(node: TreeNode, depth: int,
             bounds: list[Interval]) -> None:
        if node.is_leaf:
            assert node.prediction is not None
            paths.append(TreePath(leaf=len(paths),
                                  label=int(node.prediction),
                                  depth=depth,
                                  intervals=tuple(bounds)))
            return
        assert node.feature is not None
        assert node.left is not None and node.right is not None
        lo, hi = bounds[node.feature]
        threshold = float(node.threshold)
        left = list(bounds)
        left[node.feature] = (
            lo, threshold if hi is None else min(hi, threshold))
        walk(node.left, depth + 1, left)
        right = list(bounds)
        right[node.feature] = (
            threshold if lo is None else max(lo, threshold), hi)
        walk(node.right, depth + 1, right)

    walk(tree.root, 0, [(None, None)] * tree.n_features)
    return tuple(paths)


def compile_rows(features: Sequence[str],
                 rows: Sequence[tuple[int, Sequence[Interval]]], *,
                 margin: float = 0.0, sharpness: float = 1.0,
                 ledger: EnergyLedger | None = None
                 ) -> tuple[ACAMArray, np.ndarray]:
    """Store ``(label, per-feature intervals)`` rows as one aCAM bank.

    Row ``i`` of the bank holds ``rows[i]``'s box; the returned label
    array maps a winning row index back to its class.
    """
    array = ACAMArray(features, ledger=ledger)
    for _, intervals in rows:
        array.add_row([ACAMInterval(lo=lo, hi=hi, margin=margin,
                                    sharpness=sharpness)
                       for lo, hi in intervals])
    labels = np.array([label for label, _ in rows], dtype=int)
    return array, labels


@dataclass(frozen=True)
class ClassifierSpec:
    """Declarative description of a compiled aCAM classifier.

    ``rows`` holds one ``(class label, per-feature intervals)`` entry
    per stored row — typically one per decision-tree leaf, in
    depth-first order.  ``class_to_port`` maps class labels to egress
    ports, at most one port per class; classes without an entry keep
    the routing decision the digital tables already made.  Everything
    is tuples so the spec is hashable and can live on the frozen
    :class:`~repro.dataplane.switch.SwitchSpec`.
    """

    features: tuple[str, ...]
    rows: tuple[tuple[int, tuple[Interval, ...]], ...]
    class_to_port: tuple[tuple[int, int], ...] = ()
    margin: float = 0.0
    sharpness: float = 1.0

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
        steered = [label for label, _ in self.class_to_port]
        for label, port in self.class_to_port:
            if label not in labels:
                raise ValueError(
                    f"steering for unknown class {label!r}")
            if steered.count(label) > 1:
                raise ValueError(
                    f"class {label!r} is steered more than once")
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
                              sharpness: float = 1.0
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
                          margin=margin, sharpness=sharpness)


class ACAMClassifier:
    """A :class:`ClassifierSpec` realised as one searchable aCAM bank.

    Built from a tree's spec, the winning row is the depth-first leaf
    index, so :meth:`predict_batch` equals the digital traversal; the
    spec's ``margin`` adds the analog nearest-leaf fall-off beyond
    each box face without disturbing that equivalence.
    """

    def __init__(self, spec: ClassifierSpec,
                 ledger: EnergyLedger | None = None) -> None:
        self.spec = spec
        self.array, self.labels = compile_rows(
            spec.features, spec.rows, margin=spec.margin,
            sharpness=spec.sharpness, ledger=ledger)
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

    @property
    def n_rows(self) -> int:
        """Stored rows (one per tree leaf)."""
        return self.array.n_rows

    def classify(self, features: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
        """(best rows, deterministic-match flags) for a feature matrix
        in ``spec.features`` order, in one bank search.  ``labels``,
        ``row_codes`` and ``row_ports`` map the rows to their class,
        telemetry code and steering port."""
        result = self.array.search_batch(features)
        deterministic = result.deterministic_mask[
            np.arange(len(result)), result.best_rows]
        return result.best_rows, deterministic

    def predict_leaves(self, features: np.ndarray,
                       chunk_size: int | None = None) -> np.ndarray:
        """Winning row (== depth-first leaf index) per sample, one
        :meth:`classify` per chunk."""
        x = np.atleast_2d(np.asarray(features, dtype=float))
        if x.shape[1] != len(self.spec.features):
            raise ValueError(
                f"feature matrix has {x.shape[1]} columns, classifier "
                f"has {len(self.spec.features)} features")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(
                f"chunk size must be >= 1: {chunk_size!r}")
        step = len(x) if chunk_size is None else chunk_size
        leaves = [self.classify(x[start:start + step])[0]
                  for start in range(0, len(x), max(step, 1))]
        return np.concatenate(leaves) if leaves \
            else np.zeros(0, dtype=int)

    def predict_batch(self, features: np.ndarray,
                      chunk_size: int | None = None) -> np.ndarray:
        """Classes for a feature matrix, one bank search per chunk."""
        return self.labels[self.predict_leaves(features, chunk_size)]

    def predict(self, sample: Sequence[float]) -> int:
        """Class of one sample — a batch of one through the bank."""
        return int(self.predict_batch(
            np.asarray(sample, dtype=float).reshape(1, -1))[0])
