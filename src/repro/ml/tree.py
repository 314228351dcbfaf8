"""CART decision tree classifier (Gini impurity).

Used three ways in the reproduction, as in the paper:

* stand-alone manual-event classifier (Table 2 sweeps ``max_depth`` 2-12,
  best at 3);
* base learner of the random forest and AdaBoost ensembles;
* the 9-layer humanness-validation model borrowed from zkSENSE (§5.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from .base import Classifier, check_X, check_Xy

__all__ = ["DecisionTreeClassifier"]


@dataclass
class _Node:
    """One tree node; leaves carry class-count distributions."""

    counts: np.ndarray
    feature: int = -1
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.sum(p * p))


def _midpoint(low: float, high: float) -> float:
    """Threshold between two adjacent sorted values, ``low < high``.

    For adjacent floats the halfway sum can round up onto ``high``; the
    split ``X <= threshold`` would then send ``high`` left, so ``low`` is
    used instead.
    """
    threshold = float((low + high) / 2.0)
    return float(low) if threshold == high else threshold


class DecisionTreeClassifier(Classifier):
    """Binary CART tree grown greedily on Gini impurity decrease.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (``None`` = unbounded).
    min_samples_split:
        Minimum samples required to consider splitting a node.
    min_samples_leaf:
        Minimum samples each child must retain.
    max_features:
        Number of features examined per split: ``None`` (all),
        ``"sqrt"``, or an int.  Random forests pass ``"sqrt"``.
    seed:
        Seed for the per-split feature subsampling.
    """

    def __init__(
        self,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: Any = None,
        seed: Optional[int] = None,
    ) -> None:
        if max_depth is not None and max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed
        self._root: Optional[_Node] = None

    # -- training -----------------------------------------------------------------

    def _n_features_per_split(self, n_features: int) -> int:
        if self.max_features is None:
            return n_features
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        return max(1, min(int(self.max_features), n_features))

    def _best_split(
        self, X: np.ndarray, y_idx: np.ndarray, features: np.ndarray, n_classes: int
    ) -> Optional[tuple]:
        """Best ``(feature, threshold)`` by Gini gain, or ``None``.

        Every cut of every candidate feature is scored in one pass: each
        column is stably sorted, cumulative one-hot class counts give the
        left side of every cut and the parent minus them the right side.
        A cut is valid between unequal adjacent values when both sides keep
        ``min_samples_leaf`` samples.  The winner is the first cut, in
        ``features`` order and then in sorted order, whose gain is
        strictly greater than every earlier one and than ``1e-12``.
        """
        parent_counts = np.bincount(y_idx, minlength=n_classes)
        parent_gini = _gini(parent_counts)
        n = len(y_idx)
        columns = X[:, features]
        order = np.argsort(columns, axis=0, kind="mergesort")
        values = np.take_along_axis(columns, order, axis=0)
        # (n - 1, features, classes), class axis contiguous, so every
        # per-cut class sum below reduces in the same order as a 1-D sum.
        left = np.cumsum(np.eye(n_classes)[y_idx[order]], axis=0)[:-1]
        right = parent_counts - left
        n_left = np.arange(1, n, dtype=float)[:, None]
        n_right = n - n_left
        gini_left = 1.0 - np.sum(np.square(left / n_left[..., None]), axis=2)
        gini_right = 1.0 - np.sum(np.square(right / n_right[..., None]), axis=2)
        gain = parent_gini - (n_left * gini_left + n_right * gini_right) / n
        valid = (values[:-1] != values[1:]) & (
            np.minimum(n_left, n_right) >= self.min_samples_leaf
        )
        gain = np.where(valid, gain, -np.inf).T
        best = int(np.argmax(gain))
        column, cut = divmod(best, n - 1)
        if not gain[column, cut] > 1e-12:
            return None
        low, high = values[cut, column], values[cut + 1, column]
        return int(features[column]), _midpoint(low, high)

    def _grow(
        self,
        X: np.ndarray,
        y_idx: np.ndarray,
        depth: int,
        n_classes: int,
        rng: np.random.Generator,
    ) -> _Node:
        counts = np.bincount(y_idx, minlength=n_classes).astype(float)
        node = _Node(counts=counts)
        if (
            len(y_idx) < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
            or np.count_nonzero(counts) <= 1
        ):
            return node
        n_features = X.shape[1]
        k = self._n_features_per_split(n_features)
        if k < n_features:
            features = rng.choice(n_features, size=k, replace=False)
        else:
            features = np.arange(n_features)
        split = self._best_split(X, y_idx, features, n_classes)
        if split is None:
            return node
        node.feature, node.threshold = split
        mask = X[:, node.feature] <= node.threshold
        node.left = self._grow(X[mask], y_idx[mask], depth + 1, n_classes, rng)
        node.right = self._grow(X[~mask], y_idx[~mask], depth + 1, n_classes, rng)
        return node

    def fit(self, X: Any, y: Any) -> "DecisionTreeClassifier":
        """Grow the tree on ``(X, y)``."""
        X, y = check_Xy(X, y)
        y_idx = self._store_classes(y)
        rng = np.random.default_rng(self.seed)
        self._root = self._grow(X, y_idx, depth=0, n_classes=len(self.classes_), rng=rng)
        return self

    # -- inference ----------------------------------------------------------------

    def _leaf_for(self, x: np.ndarray) -> _Node:
        node = self._root
        while not node.is_leaf:
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node

    def predict_proba(self, X: Any) -> np.ndarray:
        """Class distribution of the leaf each sample lands in."""
        if self._root is None:
            raise RuntimeError("classifier must be fitted before predict")
        X = check_X(X)
        proba = np.empty((X.shape[0], len(self.classes_)))
        for i, x in enumerate(X):
            counts = self._leaf_for(x).counts
            total = counts.sum()
            proba[i] = counts / total if total else 1.0 / len(counts)
        return proba

    @property
    def depth(self) -> int:
        """Actual depth of the grown tree (0 = a single leaf)."""

        def walk(node: Optional[_Node]) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        if self._root is None:
            raise RuntimeError("classifier must be fitted first")
        return walk(self._root)

    @property
    def n_leaves(self) -> int:
        """Number of leaves in the grown tree."""

        def walk(node: _Node) -> int:
            if node.is_leaf:
                return 1
            return walk(node.left) + walk(node.right)

        if self._root is None:
            raise RuntimeError("classifier must be fitted first")
        return walk(self._root)
