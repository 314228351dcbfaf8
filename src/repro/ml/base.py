"""Estimator foundations for the mini-ML library.

The paper trains nine scikit-learn classifiers (Table 2); scikit-learn is
not available offline, so :mod:`repro.ml` re-implements them on NumPy
following the textbook algorithms.  This module provides the shared
estimator contract: ``fit(X, y)`` / ``predict(X)`` / ``score(X, y)``,
parameter introspection for cloning (needed by cross-validation), and
label handling utilities.
"""

from __future__ import annotations

import copy
import inspect
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

__all__ = ["Classifier", "clone", "check_Xy", "check_X"]


def check_X(X: Any) -> np.ndarray:
    """Coerce ``X`` to a 2-D float array, rejecting empty or NaN input."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if X.shape[0] == 0 or X.shape[1] == 0:
        raise ValueError(f"X must be non-empty, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("X contains NaN or infinite values")
    return X


def check_Xy(X: Any, y: Any) -> Tuple[np.ndarray, np.ndarray]:
    """Coerce and validate a training pair ``(X, y)``."""
    X = check_X(X)
    y = np.asarray(y)
    if y.ndim != 1:
        raise ValueError(f"y must be 1-D, got shape {y.shape}")
    if len(y) != X.shape[0]:
        raise ValueError(f"X has {X.shape[0]} rows but y has {len(y)} entries")
    return X, y


class Classifier:
    """Base class for all classifiers in :mod:`repro.ml`.

    Subclasses implement :meth:`fit` and either :meth:`predict` or
    :meth:`predict_proba`.  Constructor parameters must be stored on
    ``self`` under their own names so :func:`clone` can re-instantiate
    an unfitted copy.
    """

    #: set by fit(): sorted unique class labels
    classes_: np.ndarray

    def fit(self, X: Any, y: Any) -> "Classifier":
        """Train on ``(X, y)``; returns ``self``."""
        raise NotImplementedError

    def predict(self, X: Any) -> np.ndarray:
        """Predict class labels; default argmax over predict_proba."""
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

    def predict_proba(self, X: Any) -> np.ndarray:
        """Per-class probabilities; optional for hard classifiers."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement predict_proba"
        )

    def _predict_checked(self, X: np.ndarray) -> np.ndarray:
        """:meth:`predict` for an ``X`` that :func:`check_X` already accepted.

        Models that can skip the second validation override this; the
        default validates again.
        """
        return self.predict(X)

    def score(self, X: Any, y: Any) -> float:
        """Mean accuracy on ``(X, y)``."""
        y = np.asarray(y)
        return float(np.mean(self.predict(X) == y))

    def _store_classes(self, y: np.ndarray) -> np.ndarray:
        """Record sorted class labels; return per-sample class indices."""
        self.classes_, indices = np.unique(y, return_inverse=True)
        return indices

    # -- parameter introspection (for clone / hyper-parameter sweeps) -----------

    def get_params(self) -> Dict[str, Any]:
        """Constructor parameters and their current values."""
        signature = inspect.signature(type(self).__init__)
        names = [
            name
            for name, param in signature.parameters.items()
            if name != "self" and param.kind is not inspect.Parameter.VAR_KEYWORD
        ]
        return {name: getattr(self, name) for name in names}

    def set_params(self, **params: Any) -> "Classifier":
        """Update constructor parameters in place; returns ``self``."""
        valid = self.get_params()
        for name, value in params.items():
            if name not in valid:
                raise ValueError(f"unknown parameter {name!r} for {type(self).__name__}")
            setattr(self, name, value)
        return self

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v!r}" for k, v in sorted(self.get_params().items()))
        return f"{type(self).__name__}({params})"


def clone(estimator: Classifier) -> Classifier:
    """Unfitted copy of an estimator with identical constructor parameters."""
    params = {key: copy.deepcopy(value) for key, value in estimator.get_params().items()}
    return type(estimator)(**params)
