"""One-row tree inference against the batch path and the array walk.

The proxy's humanness validator predicts one proof at a time: the row's
floats walk the tree to a leaf whose label was fixed at fit time.  The
Table 2/6 evaluation predicts whole matrices through the same walk.  On
the pinned seed-0 validator of ``golden/ml.json`` both must give the
labels of the float64 array walk with ``argmax(counts / total)`` that
the tree used before, for held-out windows and for rows set exactly on
every split threshold and one ulp either side of it.
"""

import numpy as np
import pytest

from repro.ml import DecisionTreeClassifier
from repro.sensors import HumannessValidator, generate_humanness_dataset

from oracles import array_walk_proba


@pytest.fixture(scope="module")
def tree():
    return HumannessValidator(seed=0).fit()._tree


def held_out():
    return generate_humanness_dataset(n_per_class=200, seed=1)[0]


def threshold_rows(tree, base):
    """For every split: a row that reaches it, with the split feature set
    to the threshold and to the floats just below and above it."""
    rows = []
    stack = [(tree._root, base.copy())]
    while stack:
        node, row = stack.pop()
        if node.is_leaf:
            continue
        for value in (
            np.nextafter(node.threshold, -np.inf),
            node.threshold,
            np.nextafter(node.threshold, np.inf),
        ):
            probe = row.copy()
            probe[node.feature] = value
            rows.append(probe)
        left, right = row.copy(), row.copy()
        left[node.feature] = node.threshold
        right[node.feature] = np.nextafter(node.threshold, np.inf)
        stack.extend(((node.left, left), (node.right, right)))
    return np.array(rows)


def oracle_labels(tree, X):
    return tree.classes_[np.argmax(array_walk_proba(tree, X), axis=1)]


def test_held_out_rows_alone_match_batch_and_oracle(tree):
    X = held_out()
    batch = tree.predict(X)
    assert list(batch) == list(oracle_labels(tree, X))
    for row, label in zip(X, batch):
        assert tree.predict(row.reshape(1, -1))[0] == label
        assert tree.predict(tuple(row.tolist()))[0] == label
    assert len(set(batch)) == 2


def test_threshold_rows_route_like_the_array_walk(tree):
    X = threshold_rows(tree, held_out()[0])
    assert len(X) == 3 * (tree.n_leaves - 1)
    batch = tree.predict(X)
    assert list(batch) == list(oracle_labels(tree, X))
    for row, label in zip(X, batch):
        assert tree.predict(row)[0] == label
    # the rows reach both sides of the splits
    assert len(set(batch)) == 2


def test_predict_proba_matches_the_array_walk(tree):
    X = np.vstack([held_out(), threshold_rows(tree, held_out()[0])])
    proba = tree.predict_proba(X)
    assert proba.tobytes() == array_walk_proba(tree, X).tobytes()
    assert tree.predict_proba(X[:1]).tobytes() == proba[:1].tobytes()


def test_leaf_label_ties_go_to_the_first_class():
    X = np.array([[0.0], [0.0], [1.0], [1.0]])
    stump = DecisionTreeClassifier(max_depth=1).fit(X, ["b", "a", "a", "b"])
    assert stump.n_leaves == 1
    assert stump.predict([[0.5]])[0] == "a"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_row_raises(tree, bad):
    validator = HumannessValidator(seed=0)
    validator._tree = tree
    row = held_out()[0]
    row[5] = bad
    for call in (tree.predict, tree.predict_proba, validator.is_human_features):
        with pytest.raises(ValueError, match="NaN or infinite"):
            call(row)
        with pytest.raises(ValueError, match="NaN or infinite"):
            call(tuple(row.tolist()))
