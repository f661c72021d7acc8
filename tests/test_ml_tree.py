"""Unit tests for the binned multi-output CART tree."""
import numpy as np
import pytest

from repro.ml import metrics as mx
from repro.ml.tree import RegressionTree, bin_features, ensemble_importances


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("n", [80, 300])
def test_fits_linear_signal(seed, n):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 4))
    y = 3 * X[:, 0] + 0.05 * rng.normal(size=n)
    t = RegressionTree(max_depth=5, min_samples_leaf=3).fit(X, y)
    assert mx.r2(y, t.predict(X)) > 0.85


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_depth_bounds_leaf_count(depth):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 3))
    y = rng.normal(size=200)
    t = RegressionTree(max_depth=depth, min_samples_leaf=1).fit(X, y)
    n_leaves = sum(1 for f in t._feature if f == -1)
    assert n_leaves <= 2**depth


def test_constant_target_single_leaf():
    X = np.random.default_rng(0).normal(size=(50, 2))
    t = RegressionTree(max_depth=4).fit(X, np.full(50, 7.0))
    assert np.allclose(t.predict(X), 7.0)


def test_multioutput_predicts_both_columns():
    """Predictions have the target's shape: 1-D only for a 1-D target."""
    rng = np.random.default_rng(1)
    X = rng.normal(size=(300, 3))
    Y = np.column_stack([X[:, 0], -2 * X[:, 1]])
    t = RegressionTree(max_depth=6, min_samples_leaf=2).fit(X, Y)
    P = t.predict(X)
    assert P.shape == (300, 2)
    assert mx.r2(Y[:, 0], P[:, 0]) > 0.7
    assert mx.r2(Y[:, 1], P[:, 1]) > 0.7
    col = RegressionTree(max_depth=6, min_samples_leaf=2).fit(X, Y[:, :1])
    flat = RegressionTree(max_depth=6, min_samples_leaf=2).fit(X, Y[:, 0])
    assert col.predict(X).shape == (300, 1)
    assert flat.predict(X).shape == (300,)
    assert np.array_equal(col.predict(X)[:, 0], flat.predict(X))


def test_onehot_variance_split_behaves_like_gini():
    """A perfectly separable class boundary is found by the one-hot tree."""
    rng = np.random.default_rng(2)
    X = rng.normal(size=(200, 2))
    y = (X[:, 0] > 0.3).astype(int)
    onehot = np.eye(2)[y]
    t = RegressionTree(max_depth=2, min_samples_leaf=2).fit(X, onehot)
    pred = np.argmax(np.atleast_2d(t.predict(X)), axis=1)
    assert (pred == y).mean() > 0.97


def _leaf_of(t: RegressionTree, X: np.ndarray) -> np.ndarray:
    """The leaf node each row of X is routed to."""
    leaf = np.empty(X.shape[0], dtype=int)
    for i, x in enumerate(X):
        node = 0
        while t._feature[node] != -1:
            go_left = x[t._feature[node]] < t._threshold[node]
            node = t._left[node] if go_left else t._right[node]
        leaf[i] = node
    return leaf


def test_min_samples_leaf_respected():
    """Every leaf holds at least ``min_samples_leaf`` training rows, for a
    1-D and a 2-output target, including ``min_samples_leaf=1`` on tied
    features (a split past a feature's last occupied bin would leave an
    empty leaf)."""
    rng = np.random.default_rng(3)
    X = rng.normal(size=(60, 3))
    X[:, 1] = np.round(X[:, 1])  # few distinct values: most bins empty
    y = rng.normal(size=60)
    Y2 = np.column_stack([y, rng.normal(size=60)])
    for msl, target in ((10, y), (1, y), (3, Y2), (1, Y2)):
        t = RegressionTree(max_depth=8, min_samples_leaf=msl).fit(X, target)
        leaves = [i for i, f in enumerate(t._feature) if f == -1]
        assert len(leaves) > 1
        rows = np.bincount(_leaf_of(t, X), minlength=len(t._feature))
        assert (rows[leaves] >= msl).all(), (msl, rows[leaves])


def test_deterministic():
    """A refit on X, and a fit on ``bin_features(X)``, give the same tree."""
    rng = np.random.default_rng(4)
    X = rng.normal(size=(150, 3))
    y = rng.normal(size=150)
    cases = [(y, None), (rng.normal(size=(150, 2)), None), (y, "sqrt")]
    for Y, max_features in cases:
        t1, t2, tb = (
            RegressionTree(
                max_depth=4, max_features=max_features, rng=np.random.default_rng(0)
            ).fit(A, Y)
            for A in (X, X, bin_features(X))
        )
        for t in (t2, tb):
            for a in ("_feature", "_threshold", "_left", "_right", "_value"):
                assert np.array_equal(
                    np.array(getattr(t, a)), np.array(getattr(t1, a)), equal_nan=True
                )
            assert np.array_equal(t.predict(X), t1.predict(X))


def test_feature_importances_sum_and_focus():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(400, 5))
    y = 5 * X[:, 2] + 0.01 * rng.normal(size=400)
    t = RegressionTree(max_depth=4).fit(X, y)
    imp = t.feature_importances_
    assert abs(imp.sum() - 1.0) < 1e-9
    assert imp.argmax() == 2


def test_feature_importances_cover_every_fitted_feature():
    """A tree on 6 columns that splits only on column 2 still returns one
    importance per column, and so does an ensemble of such trees."""
    rng = np.random.default_rng(5)
    X = rng.normal(size=(400, 6))
    y = 5 * X[:, 2]
    t = RegressionTree(max_depth=3).fit(X, y)
    assert {f for f in t._feature if f != -1} == {2}
    assert t.n_features_in_ == 6
    assert np.array_equal(t.feature_importances_, np.eye(6)[2])
    assert np.array_equal(ensemble_importances([t, t]), np.eye(6)[2])


def test_max_features_without_rng_varies_across_nodes():
    """With ``rng=None``, successive nodes draw different feature subsets
    (one fallback generator per fit, not a fresh one per node)."""
    rng = np.random.default_rng(8)
    X = rng.normal(size=(200, 6))
    y = X.sum(axis=1)
    t = RegressionTree(max_depth=4, min_samples_leaf=2, max_features=1).fit(X, y)
    assert len({f for f in t._feature if f != -1}) > 1
    again = RegressionTree(max_depth=4, min_samples_leaf=2, max_features=1).fit(X, y)
    assert again._feature == t._feature


def test_prediction_on_unseen_values_uses_thresholds():
    X = np.linspace(0, 1, 100)[:, None]
    y = (X[:, 0] > 0.5).astype(float)
    t = RegressionTree(max_depth=3, min_samples_leaf=1).fit(X, y)
    assert t.predict(np.array([[10.0]]))[0] == pytest.approx(1.0)
    assert t.predict(np.array([[-10.0]]))[0] == pytest.approx(0.0)


@pytest.mark.parametrize("max_features", [None, "sqrt", 2])
def test_max_features_variants_fit(max_features):
    rng = np.random.default_rng(6)
    X = rng.normal(size=(200, 6))
    y = X[:, 0] + X[:, 1]
    t = RegressionTree(
        max_depth=5, max_features=max_features, rng=np.random.default_rng(0)
    ).fit(X, y)
    assert np.isfinite(t.predict(X)).all()
