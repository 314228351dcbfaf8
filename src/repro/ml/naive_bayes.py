"""Naive Bayes classifiers: Bernoulli (paper's deployed model) and Gaussian.

FIAT deploys **Bernoulli Naive Bayes** as the manual-event classifier
(§6, footnote 2: "the BernoulliNB model with default parameters of
sklearn") because of its high accuracy and superior cross-location
transferability.  Defaults here match sklearn's: ``alpha=1.0``,
``binarize=0.0``, learned class priors.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from .base import Classifier, check_X, check_Xy

__all__ = ["BernoulliNB", "GaussianNB"]


class BernoulliNB(Classifier):
    """Naive Bayes over binarised features with Laplace smoothing.

    Features are thresholded at ``binarize``; per class, Bernoulli
    likelihoods are estimated with additive smoothing ``alpha``.
    """

    def __init__(self, alpha: float = 1.0, binarize: Optional[float] = 0.0) -> None:
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.alpha = alpha
        self.binarize = binarize
        self.feature_log_prob_: Optional[np.ndarray] = None
        self.class_log_prior_: Optional[np.ndarray] = None

    def _binarize(self, X: np.ndarray) -> np.ndarray:
        if self.binarize is None:
            return X
        return (X > self.binarize).astype(float)

    def fit(self, X: Any, y: Any) -> "BernoulliNB":
        """Estimate class priors and per-feature Bernoulli parameters."""
        X, y = check_Xy(X, y)
        indices = self._store_classes(y)
        Xb = self._binarize(X)
        n_classes = len(self.classes_)
        counts = np.empty((n_classes, X.shape[1]))
        class_counts = np.empty(n_classes)
        for k in range(n_classes):
            members = Xb[indices == k]
            class_counts[k] = len(members)
            counts[k] = members.sum(axis=0)
        smoothed = (counts + self.alpha) / (class_counts[:, None] + 2 * self.alpha)
        self.feature_log_prob_ = np.log(smoothed)
        self._neg_log_prob = np.log(1.0 - smoothed)
        self.class_log_prior_ = np.log(class_counts / class_counts.sum())
        return self

    def _joint_log_likelihood(self, X: np.ndarray) -> np.ndarray:
        Xb = self._binarize(X)
        jll = Xb @ self.feature_log_prob_.T + (1.0 - Xb) @ self._neg_log_prob.T
        return jll + self.class_log_prior_

    def _posterior(self, X: np.ndarray) -> np.ndarray:
        if self.feature_log_prob_ is None:
            raise RuntimeError("classifier must be fitted before predict")
        jll = self._joint_log_likelihood(X)
        jll -= jll.max(axis=1, keepdims=True)
        expd = np.exp(jll)
        return expd / expd.sum(axis=1, keepdims=True)

    def predict_proba(self, X: Any) -> np.ndarray:
        """Posterior class probabilities."""
        return self._posterior(check_X(X))

    def _predict_checked(self, X: np.ndarray) -> np.ndarray:
        proba = self._posterior(X)
        return self.classes_[np.argmax(proba, axis=1)]


class GaussianNB(Classifier):
    """Naive Bayes with per-class Gaussian feature likelihoods.

    A small variance floor (``var_smoothing`` times the largest feature
    variance) keeps constant features well-behaved, as in sklearn.
    """

    def __init__(self, var_smoothing: float = 1e-9) -> None:
        if var_smoothing <= 0:
            raise ValueError("var_smoothing must be positive")
        self.var_smoothing = var_smoothing
        self.theta_: Optional[np.ndarray] = None
        self.var_: Optional[np.ndarray] = None
        self.class_log_prior_: Optional[np.ndarray] = None

    def fit(self, X: Any, y: Any) -> "GaussianNB":
        """Estimate per-class feature means and variances."""
        X, y = check_Xy(X, y)
        indices = self._store_classes(y)
        n_classes = len(self.classes_)
        self.theta_ = np.empty((n_classes, X.shape[1]))
        self.var_ = np.empty((n_classes, X.shape[1]))
        class_counts = np.empty(n_classes)
        epsilon = self.var_smoothing * max(float(X.var(axis=0).max()), 1e-12)
        for k in range(n_classes):
            members = X[indices == k]
            class_counts[k] = len(members)
            self.theta_[k] = members.mean(axis=0)
            self.var_[k] = members.var(axis=0) + epsilon
        self.class_log_prior_ = np.log(class_counts / class_counts.sum())
        return self

    def predict_proba(self, X: Any) -> np.ndarray:
        """Posterior class probabilities under the Gaussian model."""
        if self.theta_ is None:
            raise RuntimeError("classifier must be fitted before predict")
        X = check_X(X)
        jll = np.empty((X.shape[0], len(self.classes_)))
        for k in range(len(self.classes_)):
            log_det = np.sum(np.log(2.0 * np.pi * self.var_[k]))
            maha = np.sum((X - self.theta_[k]) ** 2 / self.var_[k], axis=1)
            jll[:, k] = self.class_log_prior_[k] - 0.5 * (log_det + maha)
        jll -= jll.max(axis=1, keepdims=True)
        expd = np.exp(jll)
        return expd / expd.sum(axis=1, keepdims=True)
