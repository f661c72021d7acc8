"""Tree identity: seeded predictions of every tree model pinned to
recorded values, and the vectorized split search checked against the
per-feature loop it replaced.

The expected digests were recorded from the tree code before the split
search was vectorized across features. A change to tree growth that
alters any split, leaf value or RNG draw changes a digest; such a change
has to keep these values or state why it does not.
"""
import hashlib

import numpy as np
import pytest

from repro.estimator.mogbm import MOGBMEstimator
from repro.measures import Measure
from repro.ml.boosting import (
    GradientBoostingClassifier,
    GradientBoostingRegressor,
    LightGBMClassifier,
)
from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import RegressionTree


def _digest(P: np.ndarray) -> str:
    """sha256 of the predictions rounded to 1e-9 (with -0.0 made 0.0)."""
    P = np.round(np.asarray(P, dtype=np.float64), 9) + 0.0
    h = hashlib.sha256(repr(P.shape).encode())
    h.update(np.ascontiguousarray(P).tobytes())
    return h.hexdigest()[:16]


def _data(n=300, d=6, seed=0):
    """X with ties (a rounded, an integer and a two-valued column) and a
    noisy score that depends on three of the columns."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    X[:, 1] = np.round(X[:, 1], 1)
    X[:, 2] = rng.integers(0, 5, n)
    X[:, 3] = rng.integers(0, 2, n)
    score = X[:, 0] + 0.5 * X[:, 2] - X[:, 3] + 0.3 * rng.normal(size=n)
    return X, score


def _classes(score, k):
    return np.digitize(score, np.quantile(score, np.linspace(0, 1, k + 1)[1:-1]))


def _rf(k):
    X, s = _data(seed=1)
    # t2_rf's forest: 4 trees, depth 8, sqrt features, min_samples_leaf 2.
    rf = RandomForestClassifier(n_estimators=4, max_depth=8, seed=7)
    return rf.fit(X, _classes(s, k)).predict_proba(X)


def _gbr_1d():
    X, s = _data(seed=2)
    return GradientBoostingRegressor(n_estimators=30).fit(X, s).predict(X)


def _gbr_multi():
    X, s = _data(seed=3)
    Y = np.column_stack([s, X[:, 0] ** 2, -X[:, 2]])
    return GradientBoostingRegressor(n_estimators=30).fit(X, Y).predict(X)


def _gbc(k):
    X, s = _data(seed=4)
    return GradientBoostingClassifier(n_estimators=20).fit(X, _classes(s, k)).predict_proba(X)


def _lgbm():
    X, s = _data(seed=5)
    return LightGBMClassifier(n_estimators=30).fit(X, _classes(s, 3)).predict_proba(X)


def _mogbm():
    """The surrogate's shape: 40 states of 36 unit bits + 2 fractions,
    5 normalized measures in (0, 1]."""
    rng = np.random.default_rng(6)
    bits = rng.integers(0, 2, size=(40, 36)).astype(np.float64)
    X = np.column_stack([bits, bits.mean(axis=1), rng.uniform(0.2, 1, 40)])
    Y = np.clip(
        0.5 + 0.3 * bits[:, :5] - 0.2 * bits[:, 5:10] + 0.05 * rng.normal(size=(40, 5)),
        0.01,
        1.0,
    )
    measures = [Measure(f"p{j}", f"p{j}", True, lo=0.01) for j in range(5)]
    est = MOGBMEstimator(measures).fit(X, Y)
    return est.predict(X)


CASES = {
    "rf_binary": (lambda: _rf(2), "99491a33320aadd9"),
    "rf_10class": (lambda: _rf(10), "93d7dced31db822c"),
    "gbr_1d": (_gbr_1d, "ca999337a35bc728"),
    "gbr_multioutput": (_gbr_multi, "c37879ee9244f040"),
    "gbc_binary": (lambda: _gbc(2), "6ad482f6bec056b1"),
    "gbc_4class": (lambda: _gbc(4), "674d8fac145a6956"),
    "lightgbm_lite": (_lgbm, "32034e01355f7fd5"),
    "mogbm": (_mogbm, "ed56452ee7c99bec"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_predictions_unchanged(name):
    make, expected = CASES[name]
    assert _digest(make()) == expected


class _LoopTree(RegressionTree):
    """Reference: the split search as one histogram per candidate feature,
    each cut to the feature's last occupied bin."""

    def _grow(self, B, Y, idx, depth):
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
            feats = self._rng.choice(d, size=k, replace=False)
        total_sum = y.sum(axis=0)
        best = (0.0, -1, -1)  # (gain, feature, bin)
        for j in feats:
            bj = B[idx, j]
            nb = bj.max() + 1
            if nb < 2:
                continue
            cnt = np.bincount(bj, minlength=nb).astype(np.float64)
            sums = np.empty((nb, y.shape[1]))
            for o in range(y.shape[1]):
                sums[:, o] = np.bincount(bj, weights=y[:, o], minlength=nb)
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
        self._feature[node] = j
        e = self._edges[j]
        self._threshold[node] = e[b] if b < len(e) else np.inf
        self._left[node] = self._grow(B, Y, idx[go_left], depth + 1)
        self._right[node] = self._grow(B, Y, idx[~go_left], depth + 1)
        return node


def test_split_search_matches_per_feature_loop():
    """Same node arrays, bit for bit, as the per-feature loop over random
    shapes: tied and constant columns, 1 to 12 outputs (sums over 8+
    outputs round pairwise), every ``min_samples_leaf`` and feature
    subsampling."""
    rng = np.random.default_rng(123)
    for case in range(60):
        n = int(rng.choice([3, 12, 40, 150]))
        d = int(rng.choice([1, 3, 15, 38]))
        m = int(rng.choice([0, 1, 2, 5, 9, 12]))  # 0: a 1-D target
        X = rng.normal(size=(n, d))
        for j in range(d):
            kind = rng.integers(0, 4)
            if kind == 0:
                X[:, j] = np.round(X[:, j], 1)
            elif kind == 1:
                X[:, j] = rng.integers(0, 2, n)
            elif kind == 2:
                X[:, j] = 3.0
        if m == 0:
            Y = X[:, 0] + rng.normal(size=n)
        elif rng.random() < 0.5:
            Y = np.eye(m)[rng.integers(0, m, n)]
        else:
            Y = rng.normal(size=(n, m))
        kw = dict(
            max_depth=int(rng.integers(0, 9)),
            min_samples_leaf=int(rng.choice([1, 2, 3, 5, 10])),
            max_features=[None, "sqrt", 1, 4][rng.integers(0, 4)],
        )
        fast, ref = (
            cls(**kw, rng=np.random.default_rng(case)).fit(X, Y)
            for cls in (RegressionTree, _LoopTree)
        )
        for a in ("_feature", "_threshold", "_left", "_right", "_value"):
            assert np.array_equal(
                np.array(getattr(fast, a)), np.array(getattr(ref, a)), equal_nan=True
            ), (case, a)
