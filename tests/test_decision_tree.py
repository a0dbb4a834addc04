"""The CART learner and its digital reference traversal."""

import numpy as np
import pytest

from repro.netfunc.decision_tree import CARTTree


def two_cluster_data(rng, n=200):
    """Two well-separated classes in 2-D."""
    a = rng.normal([0.3, 0.3], 0.08, size=(n // 2, 2))
    b = rng.normal([0.7, 0.7], 0.08, size=(n // 2, 2))
    features = np.vstack([a, b])
    labels = np.array([0] * (n // 2) + [1] * (n // 2))
    return features, labels


def quadrant_data(rng, n=400):
    """Class 1 in the upper-right quadrant (needs depth >= 2)."""
    x = rng.uniform(0, 1, size=(n, 2))
    labels = ((x[:, 0] > 0.5) & (x[:, 1] > 0.5)).astype(int)
    return x, labels


class TestCARTTree:
    def test_separable_data_fits_perfectly(self, rng):
        features, labels = two_cluster_data(rng)
        tree = CARTTree(max_depth=3).fit(features, labels)
        assert np.mean(tree.predict(features) == labels) > 0.98

    def test_quadrant_needs_depth_two(self, rng):
        features, labels = quadrant_data(rng)
        shallow = CARTTree(max_depth=1).fit(features, labels)
        deep = CARTTree(max_depth=3).fit(features, labels)
        shallow_acc = np.mean(shallow.predict(features) == labels)
        deep_acc = np.mean(deep.predict(features) == labels)
        assert deep_acc > 0.95
        assert shallow_acc < deep_acc

    def test_pure_node_becomes_leaf(self, rng):
        features = rng.uniform(0, 1, size=(50, 2))
        labels = np.zeros(50, dtype=int)
        tree = CARTTree(max_depth=5).fit(features, labels)
        assert tree.root.is_leaf
        assert tree.n_leaves() == 1

    def test_min_samples_leaf_respected(self, rng):
        features, labels = quadrant_data(rng, n=40)
        tree = CARTTree(max_depth=10, min_samples_leaf=15).fit(
            features, labels)
        assert tree.n_leaves() <= 3

    def test_unfitted_tree_rejected(self):
        with pytest.raises(RuntimeError):
            CARTTree().root

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            CARTTree(max_depth=0)
        with pytest.raises(ValueError):
            CARTTree(min_samples_leaf=0)
        with pytest.raises(ValueError):
            CARTTree().fit(np.zeros((3, 2)), np.zeros(4))
