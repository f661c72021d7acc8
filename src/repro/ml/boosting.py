"""Gradient boosting on the binned CART primitive.

``GradientBoostingRegressor`` supports multi-output targets directly
(squared loss: each stage fits a multi-output tree to the residual
matrix), which is exactly the "multi-output Gradient Boosting Model"
(MO-GBM) the paper adopts as its performance estimator [34].

``GradientBoostingClassifier`` is softmax boosting: each stage fits one
multi-output tree to the (one-hot − softmax) gradient matrix.
``LightGBMClassifier`` is the same booster with LightGBM-flavoured
defaults (more, shallower trees, stronger shrinkage); true leaf-wise
histogram growth is out of scope and documented in DESIGN.md.
"""
from __future__ import annotations

import numpy as np

from repro.ml.tree import RegressionTree, ensemble_importances


def _softmax(F: np.ndarray) -> np.ndarray:
    Z = F - F.max(axis=1, keepdims=True)
    E = np.exp(Z)
    return E / E.sum(axis=1, keepdims=True)


class GradientBoostingRegressor:
    """Squared-loss boosting; multi-output if ``y`` is 2-D."""

    def __init__(
        self,
        n_estimators: int = 50,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_leaf: int = 3,
    ):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostingRegressor":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        self._single = y.ndim == 1
        Y = y[:, None] if self._single else y
        self.init_ = Y.mean(axis=0)
        F = np.tile(self.init_, (X.shape[0], 1))
        self.trees_: list[RegressionTree] = []
        for _ in range(self.n_estimators):
            t = RegressionTree(
                max_depth=self.max_depth, min_samples_leaf=self.min_samples_leaf
            ).fit(X, Y - F)
            upd = t.predict(X)
            F += self.learning_rate * (upd[:, None] if upd.ndim == 1 else upd)
            self.trees_.append(t)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        F = np.tile(self.init_, (X.shape[0], 1))
        for t in self.trees_:
            upd = t.predict(X)
            F += self.learning_rate * (upd[:, None] if upd.ndim == 1 else upd)
        return F[:, 0] if self._single else F

    @property
    def feature_importances_(self) -> np.ndarray:
        return ensemble_importances(self.trees_)


class GradientBoostingClassifier:
    """Softmax gradient boosting; handles binary and multiclass labels."""

    def __init__(
        self,
        n_estimators: int = 40,
        learning_rate: float = 0.2,
        max_depth: int = 3,
        min_samples_leaf: int = 3,
    ):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostingClassifier":
        X = np.asarray(X, dtype=np.float64)
        self.classes_, yi = np.unique(y, return_inverse=True)
        K = len(self.classes_)
        onehot = np.eye(K)[yi]
        F = np.zeros((X.shape[0], K))
        self.trees_: list[RegressionTree] = []
        for _ in range(self.n_estimators):
            grad = onehot - _softmax(F)
            t = RegressionTree(
                max_depth=self.max_depth, min_samples_leaf=self.min_samples_leaf
            ).fit(X, grad)
            upd = t.predict(X)
            F += self.learning_rate * (upd[:, None] if upd.ndim == 1 else upd)
            self.trees_.append(t)
        return self

    def _decision(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        F = np.zeros((X.shape[0], len(self.classes_)))
        for t in self.trees_:
            upd = t.predict(X)
            F += self.learning_rate * (upd[:, None] if upd.ndim == 1 else upd)
        return F

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return _softmax(self._decision(X))

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.classes_[np.argmax(self._decision(X), axis=1)]

    @property
    def feature_importances_(self) -> np.ndarray:
        return ensemble_importances(self.trees_)


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
