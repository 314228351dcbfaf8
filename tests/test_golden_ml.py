"""Cross-commit golden pins for the tree learners.

The humanness validator (zkSENSE's 9-layer CART tree, paper §5.4) is refit
for every simulated home, and the forest and AdaBoost ensembles are built
from the same tree.  A change to how trees are fitted that is meant to be
behaviour-preserving must leave every digest in ``golden/ml.json``
untouched: the seed-0 validator tree node for node, the Table-6 humanness
precision/recall at fixed fit and evaluation seeds, and one forest and one
AdaBoost model on fixed data.  A change that is meant to alter a model
updates the digest here, visibly, in the same commit.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.ml import AdaBoostClassifier, RandomForestClassifier
from repro.sensors import HumannessValidator

from oracles import tree_lines

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "ml.json")


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def fixed_data():
    """Tie-heavy three-class data: integer columns beside continuous ones."""
    rng = np.random.default_rng(2024)
    ints = rng.integers(0, 5, size=(180, 4)).astype(float)
    floats = rng.normal(size=(180, 3))
    X = np.hstack([ints, floats])
    score = ints[:, 0] + floats[:, 0] + rng.normal(scale=0.8, size=180)
    y = np.digitize(score, [1.5, 3.5])
    return X, y


@pytest.fixture(scope="module")
def validator():
    return HumannessValidator(seed=0).fit()


def test_humanness_tree_digest(validator, golden):
    assert digest(tree_lines(validator._tree)) == golden["humanness_tree_sha256"]


def test_table6_humanness_rates(validator, golden):
    (human_p, human_r), (non_p, non_r) = validator.evaluate(seed=1)
    assert [human_p, human_r, non_p, non_r] == golden["table6_humanness_pr"]


def test_random_forest_digest(golden):
    X, y = fixed_data()
    forest = RandomForestClassifier(n_estimators=8, max_depth=6, seed=3).fit(X, y)
    lines = [line for tree in forest.estimators_ for line in tree_lines(tree) + ["--"]]
    assert digest(lines) == golden["random_forest_sha256"]


def test_adaboost_digest(golden):
    X, y = fixed_data()
    boost = AdaBoostClassifier(n_estimators=8, base_max_depth=2, seed=3).fit(X, y)
    lines = [float(w).hex() for w in boost.estimator_weights_]
    lines += [line for tree in boost.estimators_ for line in tree_lines(tree) + ["--"]]
    assert digest(lines) == golden["adaboost_sha256"]
