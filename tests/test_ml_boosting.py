"""Unit tests for gradient boosting (regressor, MO regressor, softmax
classifier, LightGBM-lite alias) and the shared ensemble importances."""
import numpy as np
import pytest

from repro.ml import metrics as mx
from repro.ml.boosting import (
    GradientBoostingClassifier,
    GradientBoostingRegressor,
    LightGBMClassifier,
)
from repro.ml.forest import RandomForestClassifier


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_regressor_beats_single_tree(seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(400, 5))
    y = np.sin(X[:, 0] * 2) + X[:, 1] ** 2
    gb = GradientBoostingRegressor(n_estimators=40, max_depth=3).fit(X, y)
    assert mx.r2(y, gb.predict(X)) > 0.9


def test_more_estimators_reduce_train_error():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(300, 4))
    y = X[:, 0] * X[:, 1]
    errs = []
    for n in (5, 20, 60):
        gb = GradientBoostingRegressor(n_estimators=n, max_depth=3).fit(X, y)
        errs.append(mx.mse(y, gb.predict(X)))
    assert errs[0] > errs[1] > errs[2]


def test_multioutput_regressor_shape_and_fit():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(300, 4))
    Y = np.column_stack([X[:, 0], 1 - X[:, 1], X[:, 2] * 0.5])
    gb = GradientBoostingRegressor(n_estimators=30).fit(X, Y)
    P = gb.predict(X)
    assert P.shape == (300, 3)
    for j in range(3):
        assert mx.r2(Y[:, j], P[:, j]) > 0.8


@pytest.mark.parametrize("n_classes", [2, 3, 4])
def test_classifier_multiclass(n_classes):
    rng = np.random.default_rng(5)
    X = rng.normal(size=(400, 4))
    y = np.digitize(
        X[:, 0] + 0.5 * X[:, 1],
        np.quantile(X[:, 0] + 0.5 * X[:, 1], np.linspace(0, 1, n_classes + 1)[1:-1]),
    )
    clf = GradientBoostingClassifier(n_estimators=30).fit(X, y)
    assert mx.accuracy(y, clf.predict(X)) > 0.8
    proba = clf.predict_proba(X)
    assert proba.shape == (400, n_classes)
    assert np.allclose(proba.sum(axis=1), 1.0)
    assert (proba >= 0).all()


def test_classifier_preserves_label_values():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(100, 2))
    y = np.where(X[:, 0] > 0, "pos", "neg")
    clf = GradientBoostingClassifier(n_estimators=10).fit(X, y)
    assert set(clf.predict(X)) <= {"pos", "neg"}


def test_lightgbm_lite_defaults_differ():
    a = GradientBoostingClassifier()
    b = LightGBMClassifier()
    assert (a.n_estimators, a.max_depth) != (b.n_estimators, b.max_depth)


def test_lightgbm_lite_fits():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(300, 3))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    clf = LightGBMClassifier(n_estimators=20).fit(X, y)
    assert mx.accuracy(y, clf.predict(X)) > 0.85


def test_regressor_deterministic():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(150, 3))
    y = rng.normal(size=150)
    p1 = GradientBoostingRegressor(n_estimators=10).fit(X, y).predict(X)
    p2 = GradientBoostingRegressor(n_estimators=10).fit(X, y).predict(X)
    assert np.array_equal(p1, p2)


def test_feature_importances_normalized():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(200, 4))
    y = X[:, 3] * 2
    for model, target in (
        (GradientBoostingRegressor(n_estimators=10), y),
        (RandomForestClassifier(n_estimators=10, seed=0), y > 0),
    ):
        imp = model.fit(X, target).feature_importances_
        assert abs(imp.sum() - 1.0) < 1e-9
        assert imp.argmax() == 3
