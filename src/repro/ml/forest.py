"""Random forest regressor with predictive uncertainty.

ytopt's Bayesian optimizer uses a Random Forest surrogate; the LCB acquisition
needs both a mean prediction and an uncertainty estimate. Here uncertainty is the
standard deviation of per-tree predictions (the standard RF-as-surrogate recipe
used by SMAC and scikit-optimize).

All trees are grown together by :func:`repro.ml.tree.grow_trees` and stored as
one set of flat node arrays.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ReproError
from repro.common.rng import ensure_rng, spawn_seed
from repro.ml.tree import (
    TreeArrays,
    check_tree_params,
    grow_trees,
    n_candidate_features,
)


class RandomForestRegressor:
    """Bootstrap-aggregated regression trees with per-tree variance."""

    def __init__(
        self,
        n_estimators: int = 30,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: "int | float | str | None" = "sqrt",
        bootstrap: bool = True,
        seed: "int | np.random.Generator | None" = None,
    ) -> None:
        if n_estimators < 1:
            raise ReproError(f"n_estimators must be >= 1, got {n_estimators}")
        check_tree_params(max_depth, min_samples_split, min_samples_leaf)
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self._rng = ensure_rng(seed)
        self.nodes_: TreeArrays | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if X.ndim != 2 or X.shape[0] != y.shape[0] or X.shape[0] == 0:
            raise ReproError(f"bad training data shapes X={X.shape}, y={y.shape}")
        n, d = X.shape
        k = n_candidate_features(self.max_features, d)
        # Per tree: its feature-draw generator, then its bootstrap sample.
        # With every feature a candidate nothing is drawn, so only the
        # generator's seed is taken from the stream.
        rngs, rows = [], []
        for _ in range(self.n_estimators):
            seed = spawn_seed(self._rng)
            if k < d:
                rngs.append(np.random.default_rng(seed))
            rows.append(
                self._rng.integers(0, n, size=n) if self.bootstrap else np.arange(n)
            )
        self.nodes_ = grow_trees(
            X, y, np.stack(rows), rngs, k,
            self.max_depth, self.min_samples_split, self.min_samples_leaf,
        )
        return self

    def predict(
        self, X: np.ndarray, return_std: bool = False
    ) -> "np.ndarray | tuple[np.ndarray, np.ndarray]":
        """Mean prediction; with ``return_std`` also the across-tree std."""
        if self.nodes_ is None:
            raise ReproError("predict() called before fit()")
        per_tree = self.nodes_.predict(X)
        mean = per_tree.mean(axis=0)
        if not return_std:
            return mean
        std = per_tree.std(axis=0)
        return mean, std
