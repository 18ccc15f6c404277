"""CART regression trees (variance-reduction splits), grown a forest at a time.

Every candidate threshold of a node (midpoints between consecutive sorted
distinct feature values) is scored by the reduction in sum-of-squared-error,
computed with cumulative sums. Tree fitting dominates the optimizer's
ask/tell loop, so :func:`grow_trees` fits a whole ensemble in one call, on one
of two growers that give the same trees:

* the compiled grower (:mod:`repro.ml.native`): one C call grows every tree,
  one after another in preorder, and one more walks them for prediction. It
  is used whenever its library builds and loads;
* the NumPy frontier grower (:class:`_Grower`), the only one on hosts
  without a working C toolchain. Each pass pads the samples of every *ready*
  node of every tree into one array and scores all their candidate splits
  together (:meth:`_Grower._best_splits`). With all features as candidates
  no randomness is consumed, so every pending node is ready and trees grow
  level by level; with a drawn subset each tree's generator must see the
  draws in preorder, so only the top of each tree's depth-first stack is
  ready, one node per tree per pass.

Both are bit-identical to the recursive builder, which splits one node at a
time with ``ndarray`` reductions over its samples (kept as the test oracle in
``tests/ml/reference_tree.py``). The contract:

* node mean and SSE are NumPy's pairwise sums added to the 0.0 identity:
  below 8 values summed in order from ``-0.0``; up to 128 values in 8 lanes
  folded as ``((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7))``, then the tail in order;
  longer runs split at ``n/2 - (n/2) % 8`` (:func:`_row_sums`);
* a node's samples are ordered stably by (value rank, position in the node),
  cumulative sums of ``y`` and ``y*y`` are taken in that order, and each
  split scores ``(sl2 - sl*sl/nl) + (sr2 - sr*sr/nr)`` in that operation
  order. The first minimum wins; positions between equal values or leaving
  fewer than ``min_samples_leaf`` samples on a side are excluded. The
  threshold is ``(below + above) / 2``;
* features are chosen by the sequential ``gain > best + 1e-12`` scan in
  drawn order, and children are partitioned stably on ``x <= threshold``;
* with ``k < d`` candidates, a node that passes the split checks draws them
  with ``Generator.choice(d, k, replace=False)`` from its tree's generator,
  in preorder (the compiled grower replays that call on the generator's own
  ``next_uint32``, so generators end in the same state).

Fitted trees are flat node arrays (:class:`TreeArrays`); only the node
numbering differs between the growers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ReproError
from repro.common.rng import ensure_rng
from repro.ml import native

#: Version of the fitted-tree layout. Bump it whenever :class:`TreeArrays`
#: changes shape, so pickled models from an older layout are refit, not
#: mispredicted.
TREE_FORMAT_VERSION = 2

#: Longest run NumPy sums in one unrolled block; longer runs recurse.
_PAIRWISE_BLOCK = 128

#: Upper bound on the padded (node, feature, sample) cells scored at once:
#: keeps the temporaries of a pass small without adding passes to the small
#: ones, where per-call overhead dominates.
_MAX_BATCH_CELLS = 1 << 12


def check_tree_params(
    max_depth: int | None, min_samples_split: int, min_samples_leaf: int
) -> None:
    if min_samples_split < 2:
        raise ReproError(f"min_samples_split must be >= 2, got {min_samples_split}")
    if min_samples_leaf < 1:
        raise ReproError(f"min_samples_leaf must be >= 1, got {min_samples_leaf}")
    if max_depth is not None and max_depth < 1:
        raise ReproError(f"max_depth must be >= 1, got {max_depth}")


def n_candidate_features(max_features: "int | float | str | None", d: int) -> int:
    """Features scored per node: int, float fraction, ``"sqrt"``, or None (all)."""
    if max_features is None:
        return d
    if max_features == "sqrt":
        return max(1, int(np.sqrt(d)))
    if isinstance(max_features, float):
        if not 0.0 < max_features <= 1.0:
            raise ReproError(f"max_features fraction out of (0, 1]: {max_features}")
        return max(1, int(round(max_features * d)))
    if isinstance(max_features, int):
        if not 1 <= max_features <= d:
            raise ReproError(f"max_features {max_features} out of [1, {d}]")
        return max_features
    raise ReproError(f"invalid max_features {max_features!r}")


def _row_sums(V: np.ndarray, count: np.ndarray) -> np.ndarray:
    """``V[b, :count[b]].sum()`` for every row ``b``, bit for bit.

    Valid for counts up to ``_PAIRWISE_BLOCK``. NumPy sums such a run with 8
    lane accumulators over its whole 8-element blocks, folds the lanes as
    ``((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7))`` (``-0.0`` without a whole block),
    adds the remaining elements in order, and adds the result to the 0.0
    identity. ``V`` must be zero past each count and have ``8 * (max count
    // 8 + 1)`` columns; trailing zeros can only turn a ``-0.0`` into the
    ``+0.0`` the identity gives anyway.
    """
    B, width = V.shape
    blocks = count // 8
    at = np.arange(B)
    # Rows without a whole block read a meaningless lane sum; head masks it.
    lanes = V.reshape(B, width // 8, 8).cumsum(axis=1)[at, blocks - 1]
    pairs = lanes[:, 0::2] + lanes[:, 1::2]
    quads = pairs[:, 0::2] + pairs[:, 1::2]
    head = np.where(blocks > 0, quads[:, 0] + quads[:, 1], -0.0)
    tail = V[at[:, None], 8 * blocks[:, None] + np.arange(7)]
    return np.concatenate([head[:, None], tail], axis=1).cumsum(axis=1)[:, -1] + 0.0


@dataclass
class TreeArrays:
    """One or more fitted regression trees as flat node arrays.

    Node ``i`` is a leaf when ``feature[i] < 0``; otherwise rows with
    ``x[feature[i]] <= threshold[i]`` descend to ``left[i]`` and the rest to
    ``right[i]``. ``roots[t]`` is tree ``t``'s root node.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n_samples: np.ndarray
    depth: np.ndarray
    roots: np.ndarray
    n_features: int

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Per-tree predictions, shape ``(n_trees, n_rows)``.

        The compiled library walks every (tree, row) pair in one call; the
        NumPy walk takes a group of trees at a time (``_MAX_BATCH_CELLS``
        pairs), each step advancing every pair not yet at a leaf.
        """
        X = np.ascontiguousarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ReproError(
                f"X must have shape (n, {self.n_features}), got {X.shape}"
            )
        lib = native.library()
        if lib is not None:
            return native.walk(lib, X, self)
        m, d = X.shape
        flat = X.ravel()
        out = np.empty((self.roots.size, m))
        step = max(1, _MAX_BATCH_CELLS // max(m, 1))
        for t in range(0, self.roots.size, step):
            roots = self.roots[t:t + step]
            node = np.repeat(roots, m)
            offset = np.tile(np.arange(m) * d, roots.size)
            active = np.flatnonzero(self.feature[node] >= 0)
            while active.size:
                at = node[active]
                go_left = flat[offset[active] + self.feature[at]] <= self.threshold[at]
                nxt = np.where(go_left, self.left[at], self.right[at])
                node[active] = nxt
                active = active[self.feature[nxt] >= 0]
            out[t:t + roots.size] = self.value[node].reshape(roots.size, m)
        return out


def grow_trees(
    X: np.ndarray,
    y: np.ndarray,
    rows: np.ndarray,
    rngs: "list[np.random.Generator]",
    k: int,
    max_depth: int | None = None,
    min_samples_split: int = 2,
    min_samples_leaf: int = 1,
) -> TreeArrays:
    """Grow one tree per row of ``rows`` (sample indices into ``X``/``y``).

    Tree ``t`` trains on ``X[rows[t]]`` in that order and, when ``k`` is
    below the number of features, draws each node's ``k`` candidate features
    from ``rngs[t]``. Uses the compiled grower when it loads, else the
    NumPy one; both give the same trees.
    """
    lib = native.library()
    if lib is not None and (k >= X.shape[1] or X.shape[1] <= native.MAX_DRAW_FEATURES):
        return _grow_native(lib, X, y, rows, rngs, k, max_depth,
                            min_samples_split, min_samples_leaf)
    return _Grower(X, y, rows, rngs, k, max_depth, min_samples_split,
                   min_samples_leaf).grow()


def _ranks(X: np.ndarray) -> np.ndarray:
    """Rank of each value within its feature, shape ``(d, n + 1)``.

    Equal values share a rank (the count of smaller values); column ``n`` is
    the padding sentinel, which ranks last.
    """
    n, d = X.shape
    rank = np.full((d, n + 1), n, dtype=np.intp)
    for f in range(d):
        col = X[:, f]
        rank[f, :n] = np.searchsorted(col[col.argsort(kind="stable")], col)
    return rank


def _grow_native(lib, X, y, rows, rngs, k, max_depth, min_samples_split,
                 min_samples_leaf) -> TreeArrays:
    # The C indexes with these unchecked: bad values must not reach it.
    check_tree_params(max_depth, min_samples_split, min_samples_leaf)
    if rows.size and (rows.min() < 0 or rows.max() >= X.shape[0]):
        raise ReproError(f"rows must index the {X.shape[0]} training samples")
    X = np.ascontiguousarray(X, dtype=float)
    inodes, fnodes, roots, size = native.grow(
        lib, X, np.ascontiguousarray(y, dtype=float), _ranks(X),
        np.ascontiguousarray(rows, dtype=np.int64), rngs, k, max_depth,
        min_samples_split, min_samples_leaf,
    )
    if size < 0:
        raise ReproError(
            "degenerate split: a threshold left one side empty, so the tree "
            "needs more than 2 * n_samples - 1 nodes"
        )
    feature, left, right, n_samples, depth = inodes[:, :size].copy()
    threshold, value = fnodes[:, :size].copy()
    return TreeArrays(feature=feature, threshold=threshold, left=left,
                      right=right, value=value, n_samples=n_samples,
                      depth=depth, roots=roots.copy(), n_features=X.shape[1])


class _Grower:
    """Growth state: node tables plus one sample buffer for all trees.

    Each node owns the contiguous slice ``buf[start:start + count]`` of row
    indices, in the order the recursive builder would have seen them;
    splitting a node stably partitions its slice in place. Sample ``n`` is
    the padding sentinel: x = +inf, y = 0, and the last rank in every feature.
    """

    def __init__(self, X, y, rows, rngs, k, max_depth, min_samples_split,
                 min_samples_leaf) -> None:
        n, d = X.shape
        self.d, self.k = d, k
        self.rngs = rngs
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.pad = n
        self.XT = np.hstack([X.T, np.full((d, 1), np.inf)])  # (d, n + 1)
        self.rank = _ranks(X)
        self.y = np.append(y, 0.0)
        self.buf = np.array(rows, dtype=np.intp).reshape(-1)
        self.n_trees, self.m = rows.shape
        cap = self.n_trees * (2 * self.m - 1)  # every leaf holds >= 1 sample
        self.feature = np.full(cap, -1, dtype=np.intp)
        self.threshold = np.zeros(cap)
        self.left = np.full(cap, -1, dtype=np.intp)
        self.right = np.full(cap, -1, dtype=np.intp)
        self.value = np.zeros(cap)
        self.sse = np.zeros(cap)
        self.count = np.zeros(cap, dtype=np.intp)
        self.start = np.zeros(cap, dtype=np.intp)
        self.depth = np.zeros(cap, dtype=np.intp)
        self.tree = np.zeros(cap, dtype=np.intp)
        self.size = 0

    def grow(self) -> TreeArrays:
        T = self.n_trees
        roots, splittable = self._add(
            np.arange(T) * self.m, np.full(T, self.m), np.zeros(T, np.intp),
            np.arange(T),
        )
        pending = roots[splittable]
        while pending.size:
            if self.k < self.d:
                ready, pending = self._pop_stack_tops(pending)
                features = np.stack([
                    self.rngs[t].choice(self.d, size=self.k, replace=False)
                    for t in self.tree[ready]
                ])
            else:
                ready, pending = pending, pending[:0]
                features = np.broadcast_to(np.arange(self.d), (ready.size, self.d))
            kids = [
                self._split(ready[b], features[b])
                for b in self._batches(self.count[ready])
            ]
            pending = np.concatenate([pending, *kids])
        s = slice(0, self.size)
        return TreeArrays(
            feature=self.feature[s].copy(),
            threshold=self.threshold[s].copy(),
            left=self.left[s].copy(),
            right=self.right[s].copy(),
            value=self.value[s].copy(),
            n_samples=self.count[s].copy(),
            depth=self.depth[s].copy(),
            roots=roots,
            n_features=self.d,
        )

    def _pop_stack_tops(self, pending: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Split ``pending`` into each tree's last-pushed node and the rest."""
        order = self.tree[pending].argsort(kind="stable")
        trees = self.tree[pending[order]]
        top = order[np.append(trees[1:] != trees[:-1], True)]
        rest = np.ones(pending.size, dtype=bool)
        rest[top] = False
        return pending[top], pending[rest]

    def _batches(self, count: np.ndarray) -> list[np.ndarray]:
        """Index batches of the ready nodes, largest first, of bounded size.

        A batch pads its nodes to its largest, so each batch holds at most
        ``_MAX_BATCH_CELLS`` (node, feature, sample) cells.
        """
        if count.size * self.k * count.max() <= _MAX_BATCH_CELLS:
            return [np.arange(count.size)]
        order = np.argsort(-count, kind="stable")
        batches, i = [], 0
        while i < order.size:
            size = max(1, _MAX_BATCH_CELLS // (self.k * int(count[order[i]])))
            batches.append(order[i:i + size])
            i += size
        return batches

    def _gather(self, start, count, width=None):
        """Padded ``(n_nodes, width)`` sample-row matrix and its validity."""
        pos = np.arange(count.max() if width is None else width)
        valid = pos < count[:, None]
        rows = np.where(valid, self.buf[np.where(valid, start[:, None] + pos, 0)],
                        self.pad)
        return rows, valid

    def _add(self, start, count, depth, tree) -> tuple[np.ndarray, np.ndarray]:
        """Append nodes; returns their ids and which of them may split.

        Each node's ``value = y.sum() / n`` and ``sse = ((y - value) **
        2).sum()`` equal the 1-D reductions over its samples in buffer order.
        """
        ids = np.arange(self.size, self.size + count.size)
        self.size += count.size
        self.start[ids] = start
        self.count[ids] = count
        self.depth[ids] = depth
        self.tree[ids] = tree

        rows, valid = self._gather(start, count, 8 * (count.max() // 8 + 1))
        Y = self.y[rows]
        mean = _row_sums(Y, count) / count
        dev = np.where(valid, Y - mean[:, None], 0.0)
        dev *= dev
        sse = _row_sums(dev, count)
        # Longer runs sum pairwise-recursively: reduce each size's contiguous
        # block row by row, which runs NumPy's own 1-D algorithm per row.
        for c in set(count[count > _PAIRWISE_BLOCK].tolist()):
            sel = np.flatnonzero(count == c)
            Yc = self.y[self.buf[start[sel, None] + np.arange(c)]]
            mean[sel] = Yc.sum(axis=1) / c
            dc = Yc - mean[sel, None]
            sse[sel] = (dc * dc).sum(axis=1)
        self.value[ids] = mean
        self.sse[ids] = sse

        constant = ((Y == Y[:, :1]) | ~valid).all(axis=1)
        splittable = (count >= self.min_samples_split) & ~constant
        if self.max_depth is not None:
            splittable &= depth < self.max_depth
        return ids, splittable

    def _split(self, nodes: np.ndarray, features: np.ndarray) -> np.ndarray:
        """Split ``nodes`` at their best splits; returns the new splittable kids."""
        rows, valid, feature, threshold = self._best_splits(nodes, features)
        split = feature >= 0
        parents = nodes[split]
        if not parents.size:
            return parents
        self.feature[parents] = feature[split]
        self.threshold[parents] = threshold[split]
        n_left = self._partition(parents, rows[split], valid[split])
        # Children are pushed right, then left: the left child is the top of
        # its tree's stack, as in a preorder recursion.
        start = self.start[parents]
        count = self.count[parents]
        kids, splittable = self._add(
            np.stack([start + n_left, start], axis=1).ravel(),
            np.stack([count - n_left, n_left], axis=1).ravel(),
            np.repeat(self.depth[parents] + 1, 2),
            np.repeat(self.tree[parents], 2),
        )
        self.right[parents] = kids[0::2]
        self.left[parents] = kids[1::2]
        return kids[splittable]

    def _best_splits(self, nodes: np.ndarray, features: np.ndarray):
        """Best (feature, threshold) of every node in one padded pass.

        Row ``(b, j)`` of the score arrays holds node ``b``'s samples sorted
        by its ``j``-th candidate feature; the split scores are the one-node
        builder's prefix-sum expressions in the same operation order.
        Positions that split equal values, leave fewer than
        ``min_samples_leaf`` samples on a side, or fall in the padding are
        masked to +inf before the argmin (ties resolve to the smallest split
        position). Nodes without a usable split get feature -1.
        """
        B, k = features.shape
        count = self.count[nodes]
        rows, valid = self._gather(self.start[nodes], count)
        n = rows.shape[1]
        b = np.arange(B)[:, None, None]
        j = np.arange(k)[None, :, None]
        # A stable sort by value is a sort by (rank, position): one int64
        # key per sample, which sorts far faster than a stable float sort.
        keys = self.rank[features[:, :, None], rows[:, None, :]]  # (B, k, n)
        keys *= n
        keys += np.arange(n)
        keys.sort(axis=2)
        ranks = keys // n
        srows = rows[b, keys - ranks * n]
        ys = self.y[srows]

        csum = ys.cumsum(axis=2)
        csum2 = (ys * ys).cumsum(axis=2)
        last = (count - 1)[:, None, None]
        nl = np.arange(1.0, n)
        nr = count[:, None, None] - nl
        sl = csum[:, :, :-1]
        sr = csum[b, j, last] - sl
        sl2 = csum2[:, :, :-1]
        sr2 = csum2[b, j, last] - sl2
        # sse = (sl2 - sl*sl/nl) + (sr2 - sr*sr/nr), evaluated in place in the
        # same operation order; padding positions divide by nr <= 0.
        with np.errstate(divide="ignore", invalid="ignore"):
            t = sl * sl
            t /= nl
            np.subtract(sl2, t, out=t)
            sr *= sr
            sr /= nr
            np.subtract(sr2, sr, out=sr)
            t += sr
        # Sorted, so "not strictly greater" means "equal" (equal rank).
        invalid = ranks[:, :, :-1] == ranks[:, :, 1:]
        invalid |= nr < self.min_samples_leaf  # includes every padding position
        if self.min_samples_leaf > 1:
            invalid |= nl < self.min_samples_leaf
        np.copyto(t, np.inf, where=invalid)
        best = t.argmin(axis=2)[:, :, None]  # position i scores left size i+1
        sse = t[b, j, best][:, :, 0]
        usable = sse != np.inf
        gains = np.where(usable, self.sse[nodes][:, None] - sse, 0.0)
        f = features[:, :, None]
        below = self.XT[f, srows[b, j, best]]
        above = self.XT[f, srows[b, j, best + 1]]
        thresholds = ((below + above) / 2.0)[:, :, 0]

        # First feature, in drawn order, to beat the running best by > 1e-12.
        best_gain = np.zeros(B)
        choice = np.full(B, -1)
        for col in range(k):
            better = gains[:, col] > best_gain + 1e-12
            best_gain = np.where(better, gains[:, col], best_gain)
            choice[better] = col
        chosen = choice >= 0
        at = np.arange(B)
        feature = np.where(chosen, features[at, choice], -1)
        threshold = np.where(chosen, thresholds[at, choice], 0.0)
        return rows, valid, feature, threshold

    def _partition(self, parents, rows, valid) -> np.ndarray:
        """Stably partition each parent's slice (left rows first); left sizes."""
        feature = self.feature[parents]
        go_left = self.XT[feature[:, None], rows] <= self.threshold[parents][:, None]
        go_left &= valid
        lefts = go_left.cumsum(axis=1)  # lefts up to and including each sample
        n_left = lefts[:, -1]
        dest = np.where(
            go_left, lefts - 1, n_left[:, None] + np.arange(rows.shape[1]) - lefts
        )
        dest += self.start[parents][:, None]
        self.buf[dest[valid]] = rows[valid]
        return n_left


class DecisionTreeRegressor:
    """A regression tree.

    Parameters follow scikit-learn naming: ``max_depth``, ``min_samples_split``,
    ``min_samples_leaf``, ``max_features`` (int, float fraction, ``"sqrt"``, or
    None for all features). The fitted tree is :attr:`nodes_`.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: "int | float | str | None" = None,
        seed: "int | np.random.Generator | None" = None,
    ) -> None:
        check_tree_params(max_depth, min_samples_split, min_samples_leaf)
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self._rng = ensure_rng(seed)
        self.nodes_: TreeArrays | None = None
        self.n_features_: int = 0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if X.ndim != 2:
            raise ReproError(f"X must be 2-D, got shape {X.shape}")
        if X.shape[0] != y.shape[0]:
            raise ReproError(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
        if X.shape[0] == 0:
            raise ReproError("cannot fit a tree on zero samples")
        self.n_features_ = X.shape[1]
        self.nodes_ = grow_trees(
            X, y, np.arange(X.shape[0])[None, :], [self._rng],
            n_candidate_features(self.max_features, self.n_features_),
            self.max_depth, self.min_samples_split, self.min_samples_leaf,
        )
        return self

    def _fitted(self, what: str) -> TreeArrays:
        if self.nodes_ is None:
            raise ReproError(f"{what}() called before fit()")
        return self.nodes_

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self._fitted("predict").predict(X)[0]

    def depth(self) -> int:
        """Maximum depth of the fitted tree (0 = a single leaf)."""
        return int(self._fitted("depth").depth.max())

    def n_leaves(self) -> int:
        return int((self._fitted("n_leaves").feature < 0).sum())
