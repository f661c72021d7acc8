"""Gradient boosting on the binned CART primitive.

One stage loop serves both boosters: X is binned once per fit, and each
stage fits one tree to the negative gradient of the current scores F.

``GradientBoostingRegressor`` supports multi-output targets directly
(squared loss: each stage fits a multi-output tree to the residual
matrix Y − F), which is exactly the "multi-output Gradient Boosting
Model" (MO-GBM) the paper adopts as its performance estimator [34].

``GradientBoostingClassifier`` is softmax boosting: each stage fits one
multi-output tree to the (one-hot − softmax(F)) gradient matrix.
``LightGBMClassifier`` is the same booster with LightGBM-flavoured
defaults (more, shallower trees, stronger shrinkage); trees still grow
depth-wise, and LightGBM's leaf-wise growth is out of scope (DESIGN.md).
"""
from __future__ import annotations

import numpy as np

from repro.ml.tree import RegressionTree, bin_features, ensemble_importances


def _softmax(F: np.ndarray) -> np.ndarray:
    Z = F - F.max(axis=1, keepdims=True)
    E = np.exp(Z)
    return E / E.sum(axis=1, keepdims=True)


class _Boosting:
    """The stage loop and the scoring loop shared by both boosters."""

    def __init__(self, n_estimators, learning_rate, max_depth, min_samples_leaf):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf

    def _boost(self, X: np.ndarray, negative_gradient) -> None:
        """Fit ``n_estimators`` stages from the scores ``init_``; each tree
        fits ``negative_gradient(F)`` of the current scores F."""
        X = np.asarray(X, dtype=np.float64)
        binned = bin_features(X)
        self.trees_: list[RegressionTree] = []
        F = self._decision(X)
        for _ in range(self.n_estimators):
            t = RegressionTree(
                max_depth=self.max_depth, min_samples_leaf=self.min_samples_leaf
            ).fit(binned, negative_gradient(F))
            F += self.learning_rate * t.predict(X)
            self.trees_.append(t)

    def _decision(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        F = np.full((X.shape[0],) + np.shape(self.init_), self.init_)
        for t in self.trees_:
            F += self.learning_rate * t.predict(X)
        return F

    @property
    def feature_importances_(self) -> np.ndarray:
        return ensemble_importances(self.trees_)


class GradientBoostingRegressor(_Boosting):
    """Squared-loss boosting; multi-output if ``y`` is 2-D."""

    def __init__(
        self,
        n_estimators: int = 50,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_leaf: int = 3,
    ):
        super().__init__(n_estimators, learning_rate, max_depth, min_samples_leaf)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostingRegressor":
        y = np.asarray(y, dtype=np.float64)
        self.init_ = y.mean(axis=0)
        self._boost(X, lambda F: y - F)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self._decision(X)


class GradientBoostingClassifier(_Boosting):
    """Softmax gradient boosting; handles binary and multiclass labels."""

    def __init__(
        self,
        n_estimators: int = 40,
        learning_rate: float = 0.2,
        max_depth: int = 3,
        min_samples_leaf: int = 3,
    ):
        super().__init__(n_estimators, learning_rate, max_depth, min_samples_leaf)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostingClassifier":
        self.classes_, yi = np.unique(y, return_inverse=True)
        onehot = np.eye(len(self.classes_))[yi]
        self.init_ = np.zeros(len(self.classes_))
        self._boost(X, lambda F: onehot - _softmax(F))
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return _softmax(self._decision(X))

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.classes_[np.argmax(self._decision(X), axis=1)]


class LightGBMClassifier(GradientBoostingClassifier):
    """LightGBM-lite: the softmax booster with LightGBM-ish defaults."""

    def __init__(
        self,
        n_estimators: int = 60,
        learning_rate: float = 0.15,
        max_depth: int = 4,
        min_samples_leaf: int = 5,
    ):
        super().__init__(n_estimators, learning_rate, max_depth, min_samples_leaf)
