"""MO-GBM: multi-output gradient-boosting performance estimator.

A single ``predict`` call returns the whole normalized performance
vector for a state (the paper reports ≤0.2 s per state and MSE ≈ 3e-4
for the sklearn counterpart; ours is the same algorithm on numpy).
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.measures import Measure
from repro.ml.boosting import GradientBoostingRegressor

if TYPE_CHECKING:  # repro.core imports this module (runner → mogbm)
    from repro.core.literals import Bits, UnitLayout


def state_features(layout: UnitLayout, bits: Bits) -> np.ndarray:
    """Featurize a state: bitmap ⊕ retained-row fraction ⊕ column frac.

    Row fraction is exact and cheap (vectorized cluster-mask count), so
    the estimator sees dataset size without materializing the dataset.
    """
    n_cols = len(layout.active_columns(bits))
    frac_rows = layout.approx_n_rows(bits) / max(1, layout.n_rows)
    frac_cols = n_cols / max(1, len(layout.attrs))
    return np.concatenate(
        [np.asarray(bits, dtype=np.float64), [frac_rows, frac_cols]]
    )


class MOGBMEstimator:
    """Surrogate E: state features → normalized performance vector."""

    def __init__(
        self,
        measures: list[Measure],
        n_estimators: int = 40,
        max_depth: int = 3,
        learning_rate: float = 0.1,
    ):
        self.measures = measures
        self._gb = GradientBoostingRegressor(
            n_estimators=n_estimators,
            max_depth=max_depth,
            learning_rate=learning_rate,
        )
        self.fitted = False

    def fit(self, X: np.ndarray, Y: np.ndarray) -> "MOGBMEstimator":
        """X: (n, n_units+2) state features; Y: (n, |P|) normalized."""
        self._gb.fit(X, Y)
        self.fitted = True
        return self

    def predict(self, feats: np.ndarray) -> np.ndarray:
        """Normalized performance vector, clipped into each (p_l, 1]."""
        out = self._gb.predict(np.atleast_2d(np.asarray(feats, dtype=np.float64)))
        out = np.atleast_2d(out)
        for j, m in enumerate(self.measures):
            out[:, j] = np.clip(out[:, j], m.lo, 1.0)
        return out[0] if out.shape[0] == 1 else out

    def mse(self, X: np.ndarray, Y: np.ndarray) -> float:
        P = np.atleast_2d(self._gb.predict(np.asarray(X, dtype=np.float64)))
        return float(((P - np.asarray(Y)) ** 2).mean())
