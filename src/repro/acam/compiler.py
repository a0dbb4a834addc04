"""Tree-to-aCAM compilation: one root-to-leaf path per stored row.

Pedretti et al. showed decision-tree inference collapses onto an
analog CAM: every root-to-leaf path is a conjunction of per-feature
threshold constraints — an axis-aligned *box* — and a box is exactly
one aCAM row of interval cells.  Classification of a whole feature
batch is then a single ``search_batch`` instead of a per-sample,
per-node traversal.

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
from repro.acam.cell import ACAMInterval
from repro.energy.ledger import EnergyLedger
from repro.netfunc.decision_tree import CARTTree, TreeNode

__all__ = ["ACAMDecisionTree", "TreePath", "compile_rows",
           "compile_tree", "tree_paths"]

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
                 ledger: EnergyLedger | None = None,
                 account: str = "acam.search"
                 ) -> tuple[ACAMArray, np.ndarray]:
    """Store ``(label, per-feature intervals)`` rows as one aCAM bank.

    Row ``i`` of the bank holds ``rows[i]``'s box; the returned label
    array maps a winning row index back to its class.
    """
    array = ACAMArray(features, ledger=ledger, account=account)
    for _, intervals in rows:
        array.add_row([ACAMInterval(lo=lo, hi=hi, margin=margin,
                                    sharpness=sharpness)
                       for lo, hi in intervals])
    labels = np.array([label for label, _ in rows], dtype=int)
    return array, labels


def compile_tree(tree: CARTTree, feature_names: Sequence[str], *,
                 margin: float = 0.0, sharpness: float = 1.0,
                 ledger: EnergyLedger | None = None,
                 account: str = "acam.search"
                 ) -> tuple[ACAMArray, np.ndarray, tuple[TreePath, ...]]:
    """Compile a fitted tree into (bank, leaf labels, paths)."""
    if len(feature_names) != tree.n_features:
        raise ValueError(
            f"need one name per feature: {len(feature_names)} != "
            f"{tree.n_features}")
    paths = tree_paths(tree)
    array, labels = compile_rows(
        feature_names, [(path.label, path.intervals) for path in paths],
        margin=margin, sharpness=sharpness, ledger=ledger,
        account=account)
    return array, labels, paths


class ACAMDecisionTree:
    """A fitted CART tree compiled for one-shot aCAM inference.

    ``predict_batch`` runs one bank search per chunk — every leaf box
    evaluated in parallel per query — and maps the winning row back
    to its class.  ``margin`` adds the analog nearest-leaf fall-off
    beyond each box face (out-of-envelope inputs still classify to
    the closest leaf instead of nothing), without ever disturbing the
    in-envelope digital equivalence.
    """

    def __init__(self, tree: CARTTree,
                 feature_names: Sequence[str], *,
                 margin: float = 0.0, sharpness: float = 1.0,
                 ledger: EnergyLedger | None = None,
                 account: str = "acam.search") -> None:
        self.feature_names = tuple(feature_names)
        self.array, self.labels, self.paths = compile_tree(
            tree, feature_names, margin=margin, sharpness=sharpness,
            ledger=ledger, account=account)

    @property
    def n_rows(self) -> int:
        """Stored rows (one per tree leaf)."""
        return self.array.n_rows

    def _matrix(self, features: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(features, dtype=float))
        if x.shape[1] != len(self.feature_names):
            raise ValueError(
                f"feature matrix has {x.shape[1]} columns, tree has "
                f"{len(self.feature_names)} features")
        return x

    def predict_leaves(self, features: np.ndarray,
                       chunk_size: int | None = None) -> np.ndarray:
        """Winning row (== depth-first leaf index) per sample."""
        x = self._matrix(features)
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(
                f"chunk size must be >= 1: {chunk_size!r}")
        step = len(x) if chunk_size is None else chunk_size
        leaves = [self.array.search_batch(x[start:start + step]).best_rows
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
