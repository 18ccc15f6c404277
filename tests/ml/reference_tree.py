"""Test-only reference: the recursive one-node-at-a-time CART builder.

This is the builder :func:`repro.ml.tree.grow_trees` replaced, kept as the
oracle both growers (compiled and NumPy) are fuzzed against. It is deliberately the plain
version: one ``_Node`` object per node, one recursive call per child, and
one prefix-sum scan per candidate feature.
"""

from __future__ import annotations

import numpy as np

from repro.common.rng import ensure_rng, spawn_rng
from repro.ml.tree import n_candidate_features


class _Node:
    __slots__ = ("feature", "threshold", "left", "right", "value", "n")

    def __init__(self) -> None:
        self.feature: int = -1
        self.threshold: float = 0.0
        self.left: "_Node | None" = None
        self.right: "_Node | None" = None
        self.value: float = 0.0
        self.n: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class ReferenceTree:
    """Recursive CART regressor with the shipped tree's parameters."""

    def __init__(self, max_depth=None, min_samples_split=2, min_samples_leaf=1,
                 max_features=None, seed=None) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self._rng = ensure_rng(seed)
        self.root: _Node | None = None

    def fit(self, X, y) -> "ReferenceTree":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        self.n_features_ = X.shape[1]
        self._k = n_candidate_features(self.max_features, self.n_features_)
        self.root = self._build(X, y, depth=0)
        return self

    def _build(self, X, y, depth) -> _Node:
        node = _Node()
        n = y.shape[0]
        node.n = n
        m = y.sum() / n
        node.value = float(m)
        if (
            n < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
            or (y == y[0]).all()
        ):
            return node
        features = (
            np.arange(self.n_features_)
            if self._k == self.n_features_
            else self._rng.choice(self.n_features_, size=self._k, replace=False)
        )
        total_sse = float(((y - m) ** 2).sum())
        best_gain, best_feature, best_threshold = 0.0, -1, 0.0
        for f in features:
            gain, threshold = self._best_split(X[:, f], y, total_sse)
            if gain > best_gain + 1e-12:
                best_gain, best_feature, best_threshold = gain, int(f), threshold
        if best_feature < 0:
            return node
        mask = X[:, best_feature] <= best_threshold
        node.feature = best_feature
        node.threshold = best_threshold
        node.left = self._build(X[mask], y[mask], depth + 1)
        node.right = self._build(X[~mask], y[~mask], depth + 1)
        return node

    def _best_split(self, x, y, total_sse) -> tuple[float, float]:
        """Best (gain, threshold) for one feature via prefix sums."""
        order = np.argsort(x, kind="stable")
        xs, ys = x[order], y[order]
        n = xs.shape[0]
        distinct = np.nonzero(xs[1:] > xs[:-1])[0] + 1  # left side sizes
        if distinct.size == 0:
            return 0.0, 0.0
        msl = self.min_samples_leaf
        valid = distinct[(distinct >= msl) & (n - distinct >= msl)]
        if valid.size == 0:
            return 0.0, 0.0
        csum = np.cumsum(ys)
        csum2 = np.cumsum(ys * ys)
        nl = valid.astype(float)
        nr = n - nl
        sl = csum[valid - 1]
        sr = csum[-1] - sl
        sl2 = csum2[valid - 1]
        sr2 = csum2[-1] - sl2
        sse = (sl2 - sl * sl / nl) + (sr2 - sr * sr / nr)
        best = int(np.argmin(sse))
        gain = total_sse - float(sse[best])
        pos = valid[best]
        return gain, float((xs[pos - 1] + xs[pos]) / 2.0)

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        out = np.empty(X.shape[0])
        stack = [(self.root, np.arange(X.shape[0]))]
        while stack:
            node, idx = stack.pop()
            if idx.size == 0:
                continue
            if node.is_leaf:
                out[idx] = node.value
                continue
            mask = X[idx, node.feature] <= node.threshold
            stack.append((node.left, idx[mask]))
            stack.append((node.right, idx[~mask]))
        return out


def reference_forest(X, y, rng, n_estimators, bootstrap=True, **tree_params):
    """Fit ``n_estimators`` reference trees the way the forest draws them.

    Per tree the forest generator ``rng`` yields the tree's own generator,
    then (with ``bootstrap``) its sample indices.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    n = X.shape[0]
    trees = []
    for _ in range(n_estimators):
        tree = ReferenceTree(seed=spawn_rng(rng), **tree_params)
        if bootstrap:
            idx = rng.integers(0, n, size=n)
            tree.fit(X[idx], y[idx])
        else:
            tree.fit(X, y)
        trees.append(tree)
    return trees


def leaf_sizes(node: _Node) -> list[int]:
    if node.is_leaf:
        return [node.n]
    return leaf_sizes(node.left) + leaf_sizes(node.right)


def depth(node: _Node) -> int:
    if node.is_leaf:
        return 0
    return 1 + max(depth(node.left), depth(node.right))
