"""Binned, vectorized multi-output CART regression tree.

The split criterion is total variance reduction across output columns.
On one-hot encoded class labels this is proportional to Gini impurity
reduction, so the same tree doubles as a classification tree; on raw
targets it is a plain regression tree; on a performance-vector target it
is the building block of the multi-output GBM estimator.

Features are binned into at most ``N_BINS`` quantile bins by
:func:`bin_features`, so a node's split search is one histogram pass
over all its candidate features (LightGBM's histogram method, Ke et al.
2017): each feature's codes are offset into their own block of bins, and
one ``bincount`` for the counts plus one per output column fill every
histogram at once — fast enough for the dataset sizes MODis explores
(10^3–10^5 rows, <=40 columns). A tree bins its own raw input; an
ensemble whose trees all see the same X bins it once per fit and hands
every tree the :class:`Binned` result.
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
        ``"sqrt"`` = ceil(sqrt(d))), drawn afresh at every node.
    rng: ``np.random.Generator`` for feature subsampling (forests); without
        one, each fit draws from its own ``default_rng(0)``.
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
        self.n_features_in_ = B.shape[1]
        # Feature subsets need a generator; without the caller's, one seeded
        # generator per fit, so successive nodes draw different subsets.
        self._rng = self.rng
        if self._rng is None and self.max_features is not None:
            self._rng = np.random.default_rng(0)
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
        n = idx.size
        total_sum = y.sum(axis=0)
        node = self._new_node(total_sum / n)  # == y.mean(axis=0), bit for bit
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
            feats = self._rng.choice(d, size=k, replace=False)
        split = self._best_split(B[idx[:, None], feats], y, total_sum)
        if split is None:
            return node
        j, b = int(feats[split[0]]), split[1]
        go_left = B[idx, j] <= b
        li, ri = idx[go_left], idx[~go_left]
        self._feature[node] = j
        e = self._edges[j]
        self._threshold[node] = e[b] if b < len(e) else np.inf
        self._left[node] = self._grow(B, Y, li, depth + 1)
        self._right[node] = self._grow(B, Y, ri, depth + 1)
        return node

    def _best_split(
        self, codes: np.ndarray, y: np.ndarray, total_sum: np.ndarray
    ) -> tuple[int, int] | None:
        """(slot, bin) of the best split of a node, whose rows have the bin
        codes ``codes[:, s]`` on candidate feature slot s, or None.

        One histogram over (slot, bin, output): slot s's codes are offset
        by s * nb. The best bin of a slot is its first maximal one; the best
        slot is the first whose gain beats the best so far by > 1e-12.
        Splitting after bin b sends codes <= b left. Bins at or past a
        slot's last occupied bin leave no row on the right, so the
        nr >= min_samples_leaf (>= 1) mask drops them, as it drops empty
        lefts.
        """
        (n, k), m = codes.shape, y.shape[1]
        nb = int(codes.max()) + 1
        codes = (codes + np.arange(k) * nb).ravel()
        cnt = np.bincount(codes, minlength=k * nb).reshape(k, nb)
        sums = np.empty((k, nb, m))
        for o in range(m):
            sums[:, :, o] = np.bincount(
                codes, weights=np.repeat(y[:, o], k), minlength=k * nb
            ).reshape(k, nb)
        nl = np.cumsum(cnt, axis=1)
        nr = n - nl
        left = np.cumsum(sums, axis=1, out=sums)
        right = total_sum - left
        # Squared in place (x**2 is x*x): these (k, nb, m) arrays are the
        # largest temporaries of a node.
        gain = np.square(left, out=left).sum(axis=2) / nl + np.square(
            right, out=right
        ).sum(axis=2) / nr
        lo = max(1, self.min_samples_leaf)
        gain = np.where((nl >= lo) & (nr >= lo), gain, -np.inf)
        bins = np.argmax(gain, axis=1)
        gains = gain[np.arange(k), bins] - (total_sum**2).sum() / n
        best, best_gain = None, 0.0
        for s, g in enumerate(gains.tolist()):
            if g > best_gain + 1e-12:
                best, best_gain = (s, int(bins[s])), g
        return best

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
        """Split-count importance over the ``n_features_in_`` fitted
        features, normalized to sum to 1."""
        imp = np.zeros(self.n_features_in_)
        for f in self._feature:
            if f != _LEAF:
                imp[f] += 1.0
        s = imp.sum()
        return imp / s if s > 0 else imp


def ensemble_importances(trees: list[RegressionTree]) -> np.ndarray:
    """Sum of the trees' split-count importances, normalized to sum to 1."""
    acc = sum(t.feature_importances_ for t in trees)
    s = acc.sum()
    return acc / s if s > 0 else acc
