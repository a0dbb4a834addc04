"""One-shot aCAM tree inference must equal the digital traversal.

The differential battery behind the compiler's exactness claim: for
*random* tree shapes, thresholds, analog margins and query batches —
including queries pinned exactly on split thresholds — the compiled
bank's single-search classification agrees with
``CARTTree.predict``/``predict_leaves`` leaf for leaf.  The same
discipline as ``test_batch_equivalence.py`` covers the bank itself:
``search`` is literally a batch of one, and chunked prediction is
invariant to the chunk size.

Strategy bounds are part of the contract: thresholds live in
[-50, 50], boundary probes sit at least 1e-6 away from thresholds,
and margins are 0 or in [0.1, 3] with sharpness in [0.5, 4] — so a
margin ramp's response at any probed point stays strictly below the
deterministic 1.0 in float64 and can never outrank a true match.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.acam import (
    ACAMArray,
    ACAMClassifier,
    ACAMInterval,
    classifier_spec_from_tree,
)
from repro.netfunc.decision_tree import CARTTree, TreeNode

MAX_DEPTH = 5
N_LABELS = 6

thresholds = st.floats(-50.0, 50.0, allow_nan=False,
                       allow_infinity=False)
margins = st.one_of(st.just(0.0), st.floats(0.1, 3.0))
sharpnesses = st.floats(0.5, 4.0)


@st.composite
def tree_nodes(draw, n_features: int, depth: int,
               bounds: tuple[tuple[float, float], ...]) -> TreeNode:
    """Random trees whose every leaf is reachable.

    Thresholds are drawn inside the split feature's accumulated
    window, exactly as a fitted CART's midpoints are — an arbitrary
    threshold could carve an empty (lo > hi) box, which no learner
    emits and the compiler rejects.
    """
    make_leaf = depth >= MAX_DEPTH or draw(
        st.integers(0, 2 + depth)) > 1
    if make_leaf:
        return TreeNode(prediction=draw(st.integers(0, N_LABELS - 1)))
    feature = draw(st.integers(0, n_features - 1))
    lo, hi = bounds[feature]
    threshold = draw(st.floats(lo, hi, allow_nan=False))
    left = list(bounds)
    left[feature] = (lo, threshold)
    right = list(bounds)
    right[feature] = (threshold, hi)
    return TreeNode(
        feature=feature,
        threshold=threshold,
        left=draw(tree_nodes(n_features, depth + 1, tuple(left))),
        right=draw(tree_nodes(n_features, depth + 1, tuple(right))))


@st.composite
def fitted_trees(draw) -> CARTTree:
    n_features = draw(st.integers(1, 4))
    bounds = ((-50.0, 50.0),) * n_features
    return CARTTree.from_root(draw(tree_nodes(n_features, 0, bounds)),
                              n_features=n_features)


def tree_thresholds(tree: CARTTree) -> list[float]:
    found: list[float] = []

    def walk(node: TreeNode) -> None:
        if node.is_leaf:
            return
        found.append(float(node.threshold))
        walk(node.left)
        walk(node.right)

    walk(tree.root)
    return found


@st.composite
def query_batches(draw, tree: CARTTree) -> np.ndarray:
    """Queries biased onto split thresholds and their 1e-6 flanks.

    The resolution contract is enforced here: every component is
    either *exactly* a split threshold or at least 1e-6 away from
    all of them.  A value a hairline (say 1e-114) outside a window
    is indistinguishable from the bound itself in float64 — the
    ramp response rounds to 1.0 — and no analog hardware resolves
    it either, so such queries are outside the exactness claim.
    """
    pins = tree_thresholds(tree) or [0.0]

    def resolvable(v: float) -> bool:
        return all(v == t or abs(v - t) >= 1e-6 for t in pins)

    value = st.one_of(
        st.floats(-60.0, 60.0, allow_nan=False, allow_infinity=False),
        st.sampled_from(pins),
        st.sampled_from(pins).map(lambda t: t + 1e-6),
        st.sampled_from(pins).map(lambda t: t - 1e-6),
    ).filter(resolvable)
    n = draw(st.integers(1, 24))
    return np.array([[draw(value) for _ in range(tree.n_features)]
                     for _ in range(n)])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_one_shot_inference_equals_digital_traversal(data):
    tree = data.draw(fitted_trees())
    batch = data.draw(query_batches(tree))
    margin = data.draw(margins)
    acam = ACAMClassifier(classifier_spec_from_tree(
        tree, [f"f{j}" for j in range(tree.n_features)],
        margin=margin, sharpness=data.draw(sharpnesses)))
    np.testing.assert_array_equal(acam.predict_leaves(batch),
                                  tree.predict_leaves(batch))
    np.testing.assert_array_equal(acam.predict_batch(batch),
                                  tree.predict(batch))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_prediction_is_chunk_size_invariant(data):
    tree = data.draw(fitted_trees())
    batch = data.draw(query_batches(tree))
    acam = ACAMClassifier(classifier_spec_from_tree(
        tree, [f"f{j}" for j in range(tree.n_features)],
        margin=data.draw(margins)))
    whole = acam.predict_leaves(batch)
    chunk = data.draw(st.integers(1, len(batch) + 3))
    np.testing.assert_array_equal(
        acam.predict_leaves(batch, chunk_size=chunk), whole)


@st.composite
def interval_banks(draw) -> tuple[ACAMArray, list[list[ACAMInterval]]]:
    """A random bank and the interval rows it was programmed with."""
    n_fields = draw(st.integers(1, 3))
    bank = ACAMArray([f"f{j}" for j in range(n_fields)])
    bound = st.one_of(st.none(), thresholds)
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        row = []
        for _ in range(n_fields):
            lo, hi = draw(bound), draw(bound)
            if lo is not None and hi is not None and lo > hi:
                lo, hi = hi, lo
            row.append(ACAMInterval(lo=lo, hi=hi,
                                    margin=draw(margins),
                                    sharpness=draw(sharpnesses)))
        bank.add_row(row)
        rows.append(row)
    return bank, rows


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_scalar_search_is_a_batch_of_one(data):
    bank, _ = data.draw(interval_banks())
    n = data.draw(st.integers(1, 16))
    queries = np.array([
        [data.draw(st.floats(-60.0, 60.0, allow_nan=False))
         for _ in bank.fields] for _ in range(n)])
    batch = bank.search_batch(queries)
    for i in range(n):
        scalar = bank.search(queries[i])
        np.testing.assert_allclose(scalar.probabilities,
                                   batch.probabilities[i],
                                   rtol=1e-9, atol=0.0)
        assert scalar.best_row == batch.best_rows[i]
        assert scalar.best_probability == batch.best_probabilities[i]
        assert scalar.first_match_row == batch.first_match_rows[i]
        # a scalar search is one query's worth of the batch energy
        assert scalar.energy_j * n == batch.energy_j


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_deterministic_match_brackets_the_stored_interval(data):
    """Inside -> deterministic; deterministic -> inside the skirt.

    A strict iff would be float-pathological at hairline distances
    beyond a bound, so the battery pins the two one-sided guarantees
    the compiler's proof rests on: every query inside a row's stored
    intervals responds at exactly 1.0, and a deterministic response
    can only come from inside the margin-widened intervals.
    """
    bank, rows = data.draw(interval_banks())
    query = np.array([[data.draw(st.floats(-60.0, 60.0,
                                           allow_nan=False))
                       for _ in bank.fields]])
    result = bank.search_batch(query)
    for index, row in enumerate(rows):
        inside = all(
            interval.contains(np.array([query[0, j]]))[0]
            for j, interval in enumerate(row))
        flagged = bool(result.deterministic_mask[0, index])
        if inside:
            assert result.probabilities[0, index] == 1.0
            assert flagged
        if flagged:
            for j, interval in enumerate(row):
                slack = interval.skirt \
                    + 1e-6 * max(1.0, abs(query[0, j]))
                widened = ACAMInterval(
                    lo=None if interval.lo is None
                    else interval.lo - slack,
                    hi=None if interval.hi is None
                    else interval.hi + slack)
                assert widened.contains(
                    np.array([query[0, j]]))[0]
