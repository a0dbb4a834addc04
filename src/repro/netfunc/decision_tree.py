"""CART learner and digital reference traversal for decision trees.

The related work the pCAM builds on used analog CAMs as "hardware
accelerator(s) ... for decision tree computation" (Graves et al. [14],
Pedretti et al. [40]): every root-to-leaf path of a tree is a box of
per-feature intervals, so the whole tree becomes one CAM search.
That inference lives in :mod:`repro.acam.compiler`; this module is
the digital side it is checked against:

* :class:`CARTTree` — a small, dependency-free CART learner (Gini
  impurity, axis-aligned splits) whose traversal
  (:meth:`CARTTree.predict_one`, :meth:`CARTTree.predict_leaf_one`)
  is the reference the aCAM bank must reproduce leaf for leaf;
* :class:`TreeNode` — one node, also used to hand-build trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["CARTTree", "TreeNode"]


@dataclass
class TreeNode:
    """One node of a fitted CART tree."""

    #: Index of the feature this node splits on (None at a leaf).
    feature: int | None = None
    #: Split threshold: left subtree takes ``x[feature] <= threshold``.
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    #: Majority class at a leaf.
    prediction: int | None = None

    @property
    def is_leaf(self) -> bool:
        """True when the node carries a class prediction."""
        return self.prediction is not None


def _gini(labels: np.ndarray) -> float:
    if labels.size == 0:
        return 0.0
    _, counts = np.unique(labels, return_counts=True)
    fractions = counts / labels.size
    return float(1.0 - np.sum(fractions ** 2))


class CARTTree:
    """A minimal CART classifier (Gini impurity, binary splits)."""

    def __init__(self, max_depth: int = 4,
                 min_samples_leaf: int = 4) -> None:
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1: {max_depth!r}")
        if min_samples_leaf < 1:
            raise ValueError(
                f"min_samples_leaf must be >= 1: {min_samples_leaf!r}")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self._root: TreeNode | None = None
        self.n_features = 0

    @property
    def root(self) -> TreeNode:
        """The fitted root node (RuntimeError before fit())."""
        if self._root is None:
            raise RuntimeError("tree has not been fitted")
        return self._root

    @classmethod
    def from_root(cls, root: TreeNode,
                  n_features: int) -> "CARTTree":
        """Wrap a hand-built (or generated) node tree as a fitted tree.

        Lets property tests and compilers exercise arbitrary tree
        shapes without going through the learner.
        """
        if n_features < 1:
            raise ValueError(
                f"n_features must be >= 1: {n_features!r}")
        tree = cls()
        tree._root = root
        tree.n_features = n_features
        return tree

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "CARTTree":
        """Grow the tree on (n_samples, n_features) data."""
        x = np.asarray(features, dtype=float)
        y = np.asarray(labels)
        if x.ndim != 2 or x.shape[0] != y.shape[0] or x.size == 0:
            raise ValueError(
                f"bad training shapes: {x.shape}, {y.shape}")
        self.n_features = x.shape[1]
        self._root = self._grow(x, y, depth=0)
        return self

    def _grow(self, x: np.ndarray, y: np.ndarray,
              depth: int) -> TreeNode:
        majority = int(np.bincount(y.astype(int)).argmax())
        if (depth >= self.max_depth
                or y.size < 2 * self.min_samples_leaf
                or _gini(y) == 0.0):
            return TreeNode(prediction=majority)
        best = self._best_split(x, y)
        if best is None:
            return TreeNode(prediction=majority)
        feature, threshold = best
        mask = x[:, feature] <= threshold
        return TreeNode(
            feature=feature, threshold=threshold,
            left=self._grow(x[mask], y[mask], depth + 1),
            right=self._grow(x[~mask], y[~mask], depth + 1))

    def _best_split(self, x: np.ndarray,
                    y: np.ndarray) -> tuple[int, float] | None:
        parent = _gini(y)
        best_gain = 1e-9
        best: tuple[int, float] | None = None
        for feature in range(x.shape[1]):
            values = np.unique(x[:, feature])
            if values.size < 2:
                continue
            midpoints = 0.5 * (values[:-1] + values[1:])
            for threshold in midpoints:
                mask = x[:, feature] <= threshold
                n_left = int(mask.sum())
                n_right = y.size - n_left
                if (n_left < self.min_samples_leaf
                        or n_right < self.min_samples_leaf):
                    continue
                gain = parent - (n_left * _gini(y[mask])
                                 + n_right * _gini(y[~mask])) / y.size
                if gain > best_gain:
                    best_gain = gain
                    best = (feature, float(threshold))
        return best

    def predict_one(self, sample: Sequence[float]) -> int:
        """Class of a single sample by tree traversal."""
        node = self.root
        while not node.is_leaf:
            assert node.feature is not None
            if sample[node.feature] <= node.threshold:
                node = node.left
            else:
                node = node.right
            assert node is not None
        assert node.prediction is not None
        return node.prediction

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Classes for an (n_samples, n_features) array."""
        x = np.asarray(features, dtype=float)
        return np.array([self.predict_one(row) for row in x])

    def predict_leaf_one(self, sample: Sequence[float]) -> int:
        """Depth-first (left-first) leaf index reached by one sample.

        This numbering is the row order the aCAM compiler stores
        leaves in, so it is the digital side of the leaf-for-leaf
        equivalence check.
        """
        node = self.root
        index = 0
        while not node.is_leaf:
            assert node.feature is not None
            assert node.left is not None and node.right is not None
            if sample[node.feature] <= node.threshold:
                node = node.left
            else:
                index += _count_leaves(node.left)
                node = node.right
        return index

    def predict_leaves(self, features: np.ndarray) -> np.ndarray:
        """Depth-first leaf index per row of a feature matrix."""
        x = np.asarray(features, dtype=float)
        return np.array([self.predict_leaf_one(row) for row in x],
                        dtype=int)

    def n_leaves(self) -> int:
        """Number of leaves in the fitted tree."""
        return _count_leaves(self.root)


def _count_leaves(node: TreeNode) -> int:
    if node.is_leaf:
        return 1
    assert node.left is not None and node.right is not None
    return _count_leaves(node.left) + _count_leaves(node.right)
