"""Numpy ML substrate.

The paper trains sklearn RandomForest/GradientBoosting, LightGBM and an
H2O linear model, and estimates performance with sklearn's multi-output
GradientBoosting — none of which are installed here. This package
implements the needed model zoo from scratch on numpy:

- :mod:`repro.ml.tree` — a binned multi-output regression tree
  (variance reduction == Gini on one-hot targets) whose split search is
  one histogram pass per node over all candidate features, and its one
  binning function ``bin_features``, the single primitive under every
  ensemble below;
- :mod:`repro.ml.boosting` — gradient boosting for regression
  (multi-output, used as the MO-GBM estimator) and softmax
  classification on one stage loop that bins X once per fit, plus a
  "LightGBM-lite" alias;
- :mod:`repro.ml.forest` — bagged random forest classifier (each tree
  bins its own bootstrap sample);
- :mod:`repro.ml.linear` — ridge linear regression and softmax logistic
  regression;
- :mod:`repro.ml.metrics` — accuracy/PR/F1/AUC, MSE/MAE/R2, Fisher
  score, mutual information, and ranking metrics @k;
- :mod:`repro.ml.kmeans` — 1-D and k-D Lloyd k-means for active-domain
  clustering (paper §6 "Construction of D_U and Operators").
"""
from repro.ml.tree import RegressionTree
from repro.ml.boosting import (
    GradientBoostingRegressor,
    GradientBoostingClassifier,
    LightGBMClassifier,
)
from repro.ml.forest import RandomForestClassifier
from repro.ml.linear import LinearRegression, LogisticRegression

__all__ = [
    "RegressionTree",
    "GradientBoostingRegressor",
    "GradientBoostingClassifier",
    "LightGBMClassifier",
    "RandomForestClassifier",
    "LinearRegression",
    "LogisticRegression",
]
