"""Binned, vectorized multi-output CART regression tree.

The split criterion is total variance reduction across output columns.
On one-hot encoded class labels this is proportional to Gini impurity
reduction, so the same tree doubles as a classification tree; on raw
targets it is a plain regression tree; on a performance-vector target it
is the building block of the multi-output GBM estimator.

Features are binned into at most ``N_BINS`` quantile bins by
:func:`bin_features`, so a split search is one ``bincount`` per (node,
feature) — fast enough for the dataset sizes MODis explores (10^3–10^5
rows, <=40 columns). A tree bins its own raw input; an ensemble whose
trees all see the same X bins it once per fit and hands every tree the
:class:`Binned` result.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

_LEAF = -1
N_BINS = 64
_QUANTILES = np.linspace(0, 1, N_BINS + 1)[1:-1]


class Binned(NamedTuple):
    """Quantile-binned features: ``codes[i, j]`` is the number of
    ``edges[j]`` that are <= ``X[i, j]``."""

    codes: np.ndarray  # (n, d) int32
    edges: list[np.ndarray]  # per feature: sorted distinct cut points


def bin_features(X: np.ndarray) -> Binned:
    """Bin every column of X into at most ``N_BINS`` quantile bins."""
    X = np.asarray(X, dtype=np.float64)
    edges = [np.unique(q) for q in np.quantile(X, _QUANTILES, axis=0).T]
    codes = np.empty(X.shape, dtype=np.int32)
    for j, e in enumerate(edges):
        codes[:, j] = np.searchsorted(e, X[:, j], side="right")
    return Binned(codes, edges)


class RegressionTree:
    """Greedy depth-bounded CART over binned features.

    Parameters
    ----------
    max_depth: maximum tree depth (root = depth 0).
    min_samples_leaf: minimum rows on each side of a split.
    max_features: number of candidate features per split (``None`` = all,
        ``"sqrt"`` = ceil(sqrt(d))); sampling requires ``rng``.
    rng: ``np.random.Generator`` for feature subsampling (forests).
    """

    def __init__(
        self,
        max_depth: int = 4,
        min_samples_leaf: int = 5,
        max_features=None,
        rng: np.random.Generator | None = None,
    ):
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.rng = rng

    # -- fitting ---------------------------------------------------------
    def fit(self, X: np.ndarray | Binned, Y: np.ndarray) -> "RegressionTree":
        """Fit on raw X, or on ``bin_features(X)``; either gives the same
        tree. Predictions are 1-D exactly when Y is."""
        B, self._edges = X if isinstance(X, Binned) else bin_features(X)
        Y = np.asarray(Y, dtype=np.float64)
        self._single = Y.ndim == 1
        if self._single:
            Y = Y[:, None]
        self.n_outputs_ = Y.shape[1]
        # Growable flat arrays describing the tree.
        self._feature: list[int] = []
        self._threshold: list[float] = []  # raw-value threshold (< goes left)
        self._left: list[int] = []
        self._right: list[int] = []
        self._value: list[np.ndarray] = []
        # Empty sides of a candidate split divide by zero; they are masked.
        with np.errstate(divide="ignore", invalid="ignore"):
            self._grow(B, Y, np.arange(B.shape[0]), depth=0)
        return self

    def _new_node(self, value: np.ndarray) -> int:
        self._feature.append(_LEAF)
        self._threshold.append(np.nan)
        self._left.append(-1)
        self._right.append(-1)
        self._value.append(value)
        return len(self._feature) - 1

    def _grow(self, B: np.ndarray, Y: np.ndarray, idx: np.ndarray, depth: int) -> int:
        y = Y[idx]
        node = self._new_node(y.mean(axis=0))
        n = idx.size
        if depth >= self.max_depth or n < 2 * self.min_samples_leaf:
            return node
        d = B.shape[1]
        if self.max_features is None:
            feats = np.arange(d)
        else:
            k = (
                max(1, int(np.ceil(np.sqrt(d))))
                if self.max_features == "sqrt"
                else min(d, int(self.max_features))
            )
            rng = self.rng or np.random.default_rng(0)
            feats = rng.choice(d, size=k, replace=False)
        total_sum = y.sum(axis=0)
        best = (0.0, -1, -1)  # (gain, feature, bin)
        Bi = B[idx]
        for j in feats:
            bj = Bi[:, j]
            nb = bj.max() + 1
            if nb < 2:
                continue
            cnt = np.bincount(bj, minlength=nb).astype(np.float64)
            sums = np.empty((nb, y.shape[1]))
            for k_out in range(y.shape[1]):
                sums[:, k_out] = np.bincount(bj, weights=y[:, k_out], minlength=nb)
            c_cnt = np.cumsum(cnt)[:-1]
            c_sum = np.cumsum(sums, axis=0)[:-1]
            nl, nr = c_cnt, n - c_cnt
            ok = (nl >= self.min_samples_leaf) & (nr >= self.min_samples_leaf)
            if not ok.any():
                continue
            gain = (c_sum**2).sum(axis=1) / nl + (
                (total_sum - c_sum) ** 2
            ).sum(axis=1) / nr
            gain = np.where(ok, gain, -np.inf)
            b = int(np.argmax(gain))
            g = gain[b] - (total_sum**2).sum() / n
            if g > best[0] + 1e-12:
                best = (g, int(j), b)
        if best[1] < 0:
            return node
        _, j, b = best
        go_left = B[idx, j] <= b
        li, ri = idx[go_left], idx[~go_left]
        self._feature[node] = j
        e = self._edges[j]
        self._threshold[node] = e[b] if b < len(e) else np.inf
        self._left[node] = self._grow(B, Y, li, depth + 1)
        self._right[node] = self._grow(B, Y, ri, depth + 1)
        return node

    # -- prediction ------------------------------------------------------
    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        out = np.empty((X.shape[0], self.n_outputs_))
        self._apply(X, np.arange(X.shape[0]), 0, out)
        return out[:, 0] if self._single else out

    def _apply(self, X, idx, node, out) -> None:
        while True:
            j = self._feature[node]
            if j == _LEAF:
                out[idx] = self._value[node]
                return
            thr = self._threshold[node]
            # bin(x) <= b  <=>  count(edges <= x) <= b  <=>  x < edges[b]
            go_left = X[idx, j] < thr
            li, ri = idx[go_left], idx[~go_left]
            if li.size == 0:
                idx, node = ri, self._right[node]
            elif ri.size == 0:
                idx, node = li, self._left[node]
            else:
                self._apply(X, li, self._left[node], out)
                idx, node = ri, self._right[node]

    @property
    def feature_importances_(self) -> np.ndarray:
        """Split-count importance, normalized to sum to 1."""
        d = 1 + max((f for f in self._feature if f != _LEAF), default=0)
        imp = np.zeros(d)
        for f in self._feature:
            if f != _LEAF:
                imp[f] += 1.0
        s = imp.sum()
        return imp / s if s > 0 else imp


def ensemble_importances(trees: list[RegressionTree]) -> np.ndarray:
    """Sum of the trees' split-count importances, normalized to sum to 1."""
    imps = [t.feature_importances_ for t in trees]
    acc = np.zeros(max(len(i) for i in imps))
    for i in imps:
        acc[: len(i)] += i
    s = acc.sum()
    return acc / s if s > 0 else acc
