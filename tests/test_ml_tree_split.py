"""The vectorized CART split builds the same trees as the scalar per-cut loop.

``DecisionTreeClassifier._best_split`` scores every cut of every candidate
feature in one pass; :class:`oracles.ScalarSplitTree` is the original loop
that scored one cut at a time.  Both must agree node for node -- feature,
threshold bits and class counts -- including the tie-break between equal
gains, on tie-heavy data, tiny nodes and class counts past NumPy's
8-element pairwise-summation block.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.tree import DecisionTreeClassifier

from oracles import ScalarSplitTree, tree_lines


def assert_same_tree(X, y, **params):
    oracle = ScalarSplitTree(**params).fit(X, y)
    fast = DecisionTreeClassifier(**params).fit(X, y)
    assert tree_lines(fast) == tree_lines(oracle)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 60),
    n_features=st.integers(1, 5),
    n_classes=st.integers(2, 9),
    n_levels=st.integers(1, 6),
    continuous=st.booleans(),
    min_samples_leaf=st.integers(1, 4),
    max_features=st.sampled_from([None, "sqrt", 2]),
    max_depth=st.sampled_from([None, 1, 3, 6]),
    seed=st.integers(0, 2**32 - 1),
)
def test_vectorized_split_matches_scalar_oracle(
    n, n_features, n_classes, n_levels, continuous, min_samples_leaf,
    max_features, max_depth, seed,
):
    rng = np.random.default_rng(seed)
    # Few distinct integer values per feature: long runs of equal values
    # and many cuts with exactly equal gains.
    X = rng.integers(0, n_levels, size=(n, n_features)).astype(float)
    if continuous:
        X[:, 0] = rng.normal(size=n)
    y = rng.integers(0, n_classes, size=n)
    assert_same_tree(
        X, y,
        max_depth=max_depth,
        min_samples_leaf=min_samples_leaf,
        max_features=max_features,
        seed=seed,
    )


def test_nine_classes_on_continuous_data():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(300, 6))
    y = np.digitize(X[:, 0] + 0.5 * X[:, 1], np.linspace(-1.5, 1.5, 8))
    assert len(np.unique(y)) == 9
    assert_same_tree(X, y, max_depth=8, seed=0)


@pytest.mark.parametrize("seed", [252, 666, 1105])
def test_many_classes_with_near_tied_gains(seed):
    # Found by search: trees whose winning cut changes if the per-class
    # Gini terms are summed in any order other than a 1-D np.sum's.
    rng = np.random.default_rng(seed)
    n_classes = int(rng.integers(3, 10))
    n = int(rng.integers(n_classes, 60))
    n_features = int(rng.integers(2, 8))
    X = rng.integers(0, int(rng.integers(2, 5)), size=(n, n_features)).astype(float)
    y = rng.integers(0, n_classes, size=n)
    assert_same_tree(X, y, seed=seed)


def test_two_samples():
    assert_same_tree(np.array([[0.0], [1.0]]), np.array([0, 1]))
    assert_same_tree(np.array([[1.0], [1.0]]), np.array([0, 1]))
    assert_same_tree(np.array([[0.0], [1.0]]), np.array([0, 1]), min_samples_leaf=2)


def test_threshold_between_adjacent_floats_separates_them():
    # low has an odd last mantissa bit, so the halfway sum of low and the
    # next float up rounds (half to even) onto high.
    low = np.nextafter(1.0, 2.0)
    high = np.nextafter(low, 2.0)
    assert (low + high) / 2.0 == high
    X = np.array([[low], [high]])
    tree = DecisionTreeClassifier().fit(X, np.array([0, 1]))
    assert tree._root.threshold == low
    assert list(tree.predict(X)) == [0, 1]
