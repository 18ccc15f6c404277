"""Compiled tree growing and walking behind :mod:`repro.ml.tree`.

One small C library with two entry points: ``grow_forest`` grows every tree
of a :func:`repro.ml.tree.grow_trees` call, one tree after another in
preorder, and ``walk_forest`` looks up each (tree, row) pair's leaf for
:meth:`repro.ml.tree.TreeArrays.predict`. Both give the same bits as the
NumPy code they stand in for (the contract is spelled out in
``repro.ml.tree``'s docstring).

The library is looked up on the first fit or predict of the process, with
the native tier's own toolchain probe and compile step
(:func:`repro.tir.codegen_c.find_toolchain`,
:func:`~repro.tir.codegen_c.compile_source`), so ``REPRO_CC`` applies to it
too. It derives from this module's source as the module's bytecode does,
and is cached beside it: ``<key>.so`` in the ``__pycache__`` directory that
holds this module's ``.pyc`` (``PYTHONPYCACHEPREFIX`` moves it), keyed by
:func:`~repro.tir.codegen_c.native_key` (source, toolchain, flags,
architecture). So a machine compiles it once per toolchain and later
processes only load it; ``library().path`` names the file, and deleting it
(or pointing ``PYTHONPYCACHEPREFIX`` at an empty directory) forces a
rebuild. ``PYTHONDONTWRITEBYTECODE`` does not turn the cache off: container
images commonly set it for every process. When that directory cannot be
written, every process compiles the library into the native tier's per-run
directory instead, as it does kernels. The outcome is
remembered per toolchain fingerprint; when there is no toolchain, or the
library does not compile or load, :func:`library` returns None and the
callers use their NumPy code. That fallback is silent: results are the same
either way, only slower.

The C calls no libc function, keeps no global state, and uses no
recursion: NumPy allocates every buffer, growth runs on an explicit stack,
and any number of threads may call it at once. Feature subsets are drawn
inside the call from each tree's own bit generator (a replay of
``Generator.choice(d, k, replace=False)``), so the caller holds the
generators' locks for its duration.
"""

from __future__ import annotations

import ctypes
import importlib
import importlib.util
import os
import threading

import numpy as np

#: Widest feature count whose subsets :func:`grow` can draw: above 10000
#: ``Generator.choice`` may switch from Floyd's algorithm to a tail shuffle.
MAX_DRAW_FEATURES = 10000

#: Pending pairwise-sum tasks ``pairwise_sum`` may hold: each split of a run
#: longer than 128 adds two, and a run of 2**63 splits fewer than 64 times.
_SUM_TASKS = 256

_SOURCE = r"""
typedef __INT64_TYPE__ i64;
typedef __UINT64_TYPE__ u64;
typedef __UINT32_TYPE__ u32;
typedef __UINT8_TYPE__ u8;

/* NumPy's bitgen_t (numpy/random/bitgen.h). */
typedef struct {
    void *state;
    u64 (*next_uint64)(void *);
    u32 (*next_uint32)(void *);
    double (*next_double)(void *);
    u64 (*next_raw)(void *);
} bitgen_t;

/* random_bounded_uint64(gen, 0, rng, 0, 0) for rng < 2**32 - 1: Lemire's
   method on 32-bit draws, as NumPy's buffered_bounded_lemire_uint32. */
static u64 bounded(bitgen_t *gen, u64 rng)
{
    if (rng == 0)
        return 0;
    u32 excl = (u32)rng + 1;
    u64 m = (u64)gen->next_uint32(gen->state) * excl;
    u32 leftover = (u32)m;
    if (leftover < excl) {
        u32 threshold = (0xFFFFFFFFu - (u32)rng) % excl;
        while (leftover < threshold) {
            m = (u64)gen->next_uint32(gen->state) * excl;
            leftover = (u32)m;
        }
    }
    return m >> 32;
}

/* Generator.choice(d, k, replace=False) for d <= 10000: Floyd's algorithm,
   then a Fisher-Yates pass over positions k-1 ... 1. mark[0:d] is all zero
   on entry and on exit. */
static void draw_features(bitgen_t *gen, i64 d, i64 k, i64 *out, u8 *mark)
{
    for (i64 j = d - k; j < d; j++) {
        i64 v = (i64)bounded(gen, (u64)j);
        if (mark[v])
            v = j;
        mark[v] = 1;
        out[j - d + k] = v;
    }
    for (i64 i = k - 1; i > 0; i--) {
        i64 j = (i64)bounded(gen, (u64)i);
        i64 t = out[j];
        out[j] = out[i];
        out[i] = t;
    }
    for (i64 i = 0; i < k; i++)
        mark[out[i]] = 0;
}

/* NumPy's unrolled sum of a run of at most 128: in order from -0.0 below 8
   values, else 8 lane accumulators folded pairwise, then the tail. */
static double block_sum(const double *v, i64 n)
{
    if (n < 8) {
        double r = -0.0;
        for (i64 i = 0; i < n; i++)
            r += v[i];
        return r;
    }
    double r0 = v[0], r1 = v[1], r2 = v[2], r3 = v[3];
    double r4 = v[4], r5 = v[5], r6 = v[6], r7 = v[7];
    i64 i;
    for (i = 8; i < n - n % 8; i += 8) {
        r0 += v[i];
        r1 += v[i + 1];
        r2 += v[i + 2];
        r3 += v[i + 3];
        r4 += v[i + 4];
        r5 += v[i + 5];
        r6 += v[i + 6];
        r7 += v[i + 7];
    }
    double r = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));
    for (; i < n; i++)
        r += v[i];
    return r;
}

/* v.sum() for a contiguous float64 run: NumPy's pairwise summation (runs
   over 128 split at n/2 - (n/2) % 8) added to the 0.0 identity. The halves
   are evaluated from a task stack: task (offset, length), or length -1 to
   add the two topmost partial sums. */
static double pairwise_sum(const double *v, i64 n, i64 *task, double *partial)
{
    if (n <= 128)
        return 0.0 + block_sum(v, n);
    i64 nt = 1, np = 0;
    task[0] = 0;
    task[1] = n;
    while (nt > 0) {
        nt--;
        i64 off = task[2 * nt], len = task[2 * nt + 1];
        if (len < 0) {
            np--;
            partial[np - 1] = partial[np - 1] + partial[np];
        } else if (len <= 128) {
            partial[np++] = block_sum(v + off, len);
        } else {
            i64 half = len / 2;
            half -= half % 8;
            task[2 * nt] = 0;
            task[2 * nt + 1] = -1;
            task[2 * nt + 2] = off + half;
            task[2 * nt + 3] = len - half;
            task[2 * nt + 4] = off;
            task[2 * nt + 5] = half;
            nt += 3;
        }
    }
    return 0.0 + partial[0];
}

/* Grow n_trees CART trees; tree t trains on rows[t*m : (t+1)*m] of X (n x d,
   row-major) and y. rank[f*ld + r] orders X[:, f] (equal values share a
   rank, all ranks < n). gens[t] is tree t's bitgen_t, read when k < d.

   Node output, cap = n_trees * (2m - 1) entries per array: inodes holds
   feature, left, right, n_samples, depth (cap each), fnodes threshold and
   value. roots[t] is tree t's root; nodes are numbered in per-tree preorder.

   Work: head[0:n] (iwork after the lists, next, stack and slot ranks) must
   be -1 and mark[0:d] (bwork after go) zero on entry; both are so again on
   return. Returns the node count, or -1 if a degenerate split would need
   more than 2m - 1 nodes in one tree. */
i64 grow_forest(const double *X, const double *y, const i64 *rank, i64 ld,
                const i64 *rows, const i64 *gens, i64 n, i64 d, i64 n_trees,
                i64 m, i64 k, i64 max_depth, i64 min_split, i64 min_leaf,
                i64 *inodes, double *fnodes, i64 *roots,
                i64 *iwork, double *fwork, u8 *bwork)
{
    const double inf = __builtin_inf();
    i64 per_tree = 2 * m - 1, cap = n_trees * per_tree;
    i64 *feature = inodes, *left = inodes + cap, *right = inodes + 2 * cap;
    i64 *n_samples = inodes + 3 * cap, *depth = inodes + 4 * cap;
    double *threshold = fnodes, *value = fnodes + cap;

    /* Samples are slots 0..m-1 of the tree's row list; yslot and rslot hold
       each slot's target and ranks. Each node owns [start, start + count)
       of d + 1 slot lists: list 0 in position order, list f + 1 sorted by
       (rank of feature f, position). A node at depth t keeps its lists in
       buffer t % 2; a split partitions them stably into the other buffer,
       where its children read them. */
    i64 span = (d + 1) * m;
    i64 *lists = iwork;
    i64 *next = lists + 2 * span;
    i64 *stack = next + m;   /* 4 entries per pending node */
    i64 *rslot = stack + 4 * per_tree;
    i64 *head = rslot + d * m;
    i64 *feats = head + n;
    i64 *task = feats + d;
    double *yslot = fwork, *ybuf = fwork + m, *csum = fwork + 2 * m;
    double *csum2 = fwork + 3 * m, *partial = fwork + 4 * m;
    u8 *go = bwork, *mark = bwork + m;
    i64 size = 0;

    for (i64 t = 0; t < n_trees; t++) {
        const i64 *trow = rows + t * m;
        bitgen_t *gen = (bitgen_t *)gens[t];
        for (i64 s = 0; s < m; s++) {
            lists[s] = s;
            yslot[s] = y[trow[s]];
        }
        for (i64 f = 0; f < d; f++) {
            /* Counting sort by rank: a list per rank, in position order. */
            i64 *rs = rslot + f * m, *out = lists + (f + 1) * m, p = 0;
            for (i64 s = m - 1; s >= 0; s--) {
                i64 r = rank[f * ld + trow[s]];
                rs[s] = r;
                next[s] = head[r];
                head[r] = s;
            }
            for (i64 r = 0; r < n; r++) {
                i64 s = head[r];
                while (s >= 0) {
                    out[p++] = s;
                    s = next[s];
                }
                head[r] = s;
            }
        }

        roots[t] = size;
        i64 limit = size + per_tree, reserved = size + 1, sp = 1;
        stack[0] = 0;        /* start */
        stack[1] = m;        /* count */
        stack[2] = 0;        /* depth */
        stack[3] = -1;       /* 2 * parent + (1 if right child) */
        while (sp > 0) {
            sp--;
            i64 start = stack[4 * sp], count = stack[4 * sp + 1];
            i64 dep = stack[4 * sp + 2], link = stack[4 * sp + 3];
            i64 id = size++;
            if (link >= 0) {
                if (link & 1)
                    right[link >> 1] = id;
                else
                    left[link >> 1] = id;
            }
            const i64 *lst = lists + (dep & 1) * span;
            i64 constant = 1;
            for (i64 i = 0; i < count; i++) {
                ybuf[i] = yslot[lst[start + i]];
                constant &= ybuf[i] == ybuf[0];
            }
            double mean = pairwise_sum(ybuf, count, task, partial) / (double)count;
            feature[id] = -1;
            threshold[id] = 0.0;
            left[id] = -1;
            right[id] = -1;
            value[id] = mean;
            n_samples[id] = count;
            depth[id] = dep;
            if (count < min_split || (max_depth >= 0 && dep >= max_depth) || constant)
                continue;
            if (k < d)
                draw_features(gen, d, k, feats, mark);
            else
                for (i64 f = 0; f < d; f++)
                    feats[f] = f;
            for (i64 i = 0; i < count; i++) {
                double dev = ybuf[i] - mean;
                ybuf[i] = dev * dev;
            }
            double sse = pairwise_sum(ybuf, count, task, partial);

            /* Best split of each candidate feature, first feature in drawn
               order to beat the running best gain by more than 1e-12. */
            double best_gain = 0.0, best_threshold = 0.0;
            i64 best_feature = -1;
            for (i64 j = 0; j < k; j++) {
                i64 f = feats[j];
                const i64 *sorted = lst + (f + 1) * m + start;
                const i64 *rs = rslot + f * m;
                double c = 0.0, c2 = 0.0;
                for (i64 i = 0; i < count; i++) {
                    double yv = yslot[sorted[i]];
                    c = i ? c + yv : yv;
                    c2 = i ? c2 + yv * yv : yv * yv;
                    csum[i] = c;
                    csum2[i] = c2;
                }
                /* First minimum (or first NaN) over the split positions
                   between distinct values with min_leaf samples each side. */
                double best = inf;
                i64 at = -1;
                for (i64 i = min_leaf - 1; i < count - min_leaf; i++) {
                    if (rs[sorted[i]] == rs[sorted[i + 1]])
                        continue;
                    double sl = csum[i], sr = c - sl;
                    double sl2 = csum2[i], sr2 = c2 - sl2;
                    double dl = (double)(i + 1), dr = (double)count - dl;
                    double score = (sl2 - sl * sl / dl) + (sr2 - sr * sr / dr);
                    if (!(score >= best)) {
                        best = score;
                        at = i;
                        if (score != score)
                            break;
                    }
                }
                if (at < 0)
                    continue;
                double gain = sse - best;
                if (gain > best_gain + 1e-12) {
                    best_gain = gain;
                    best_feature = f;
                    double below = X[trow[sorted[at]] * d + f];
                    double above = X[trow[sorted[at + 1]] * d + f];
                    best_threshold = (below + above) / 2.0;
                }
            }
            if (best_feature < 0)
                continue;
            if (reserved + 2 > limit)
                return -1;
            reserved += 2;
            feature[id] = best_feature;
            threshold[id] = best_threshold;

            i64 nl = 0;
            for (i64 i = 0; i < count; i++) {
                i64 s = lst[start + i];
                u8 g = X[trow[s] * d + best_feature] <= best_threshold;
                go[s] = g;
                nl += g;
            }
            i64 *dst = lists + ((dep + 1) & 1) * span;
            for (i64 l = 0; l <= d; l++) {
                const i64 *src = lst + l * m + start;
                i64 *out = dst + l * m + start, a = 0, b = nl;
                for (i64 i = 0; i < count; i++) {
                    i64 s = src[i], g = go[s];
                    out[g ? a : b] = s;
                    a += g;
                    b += 1 - g;
                }
            }
            /* Right child below the left: the left subtree grows first. */
            i64 *e = stack + 4 * sp;
            e[0] = start + nl;
            e[1] = count - nl;
            e[2] = dep + 1;
            e[3] = 2 * id + 1;
            e[4] = start;
            e[5] = nl;
            e[6] = dep + 1;
            e[7] = 2 * id;
            sp += 2;
        }
    }
    return size;
}

/* out[t * n_rows + r] = value of the leaf row r of X (n_rows x d) reaches
   in tree t (rooted at roots[t]). */
void walk_forest(const double *X, i64 n_rows, i64 d, const i64 *feature,
                 const double *threshold, const i64 *left, const i64 *right,
                 const double *value, const i64 *roots, i64 n_trees,
                 double *out)
{
    for (i64 t = 0; t < n_trees; t++) {
        for (i64 r = 0; r < n_rows; r++) {
            const double *x = X + r * d;
            i64 node = roots[t];
            while (feature[node] >= 0)
                node = x[feature[node]] <= threshold[node] ? left[node] : right[node];
            out[t * n_rows + r] = value[node];
        }
    }
}
"""


class _Library:
    """The loaded library with its two entry points' signatures set."""

    def __init__(self, path: str) -> None:
        lib = ctypes.CDLL(path)
        self.path = path
        ptr, i64 = ctypes.c_void_p, ctypes.c_int64
        self.grow_forest = lib.grow_forest
        self.grow_forest.restype = i64
        self.grow_forest.argtypes = [
            ptr, ptr, ptr, i64, ptr, ptr, i64, i64, i64, i64, i64, i64, i64, i64,
            ptr, ptr, ptr, ptr, ptr, ptr,
        ]
        self.walk_forest = lib.walk_forest
        self.walk_forest.restype = None
        self.walk_forest.argtypes = [ptr, i64, i64, ptr, ptr, ptr, ptr, ptr, ptr,
                                     i64, ptr]
        self._lib = lib  # keeps the library loaded


_lock = threading.Lock()
#: Build outcome per toolchain fingerprint: the library, or None.
_by_toolchain: dict[str, "_Library | None"] = {}
#: The same outcomes keyed by the ``REPRO_CC`` setting they were resolved
#: under, so a fit does not re-probe the toolchain (~80 us) every call.
_by_setting: dict[str, "_Library | None"] = {}


def _flags() -> tuple[str, ...]:
    """The native tier's compile recipe with FP contraction off: a fused
    multiply-add would round the split scores differently from NumPy."""
    from repro.tir.codegen_c import CC_FLAGS

    return CC_FLAGS + ("-ffp-contract=off",)


def library() -> "_Library | None":
    """The compiled grower for the current ``REPRO_CC``, built on first use;
    None when it cannot be built or loaded with that toolchain."""
    setting = os.environ.get("REPRO_CC", "")
    lib = _by_setting.get(setting, False)
    if lib is not False:
        return lib
    with _lock:
        if setting not in _by_setting:
            _by_setting[setting] = _resolve()
        return _by_setting[setting]


def _resolve() -> "_Library | None":
    # The module, not the re-exported function ``repro.tir.codegen_c``:
    # compile_source is looked up on it at call time.
    codegen = importlib.import_module("repro.tir.codegen_c")
    try:
        toolchain = codegen.find_toolchain()
    except codegen.NativeToolchainError:
        return None
    if toolchain.fingerprint not in _by_toolchain:
        try:
            _by_toolchain[toolchain.fingerprint] = _Library(_build(codegen, toolchain))
        except (codegen.NativeCompileError, OSError, AttributeError):
            _by_toolchain[toolchain.fingerprint] = None
    return _by_toolchain[toolchain.fingerprint]


def _build(codegen, toolchain) -> str:
    """Path of the library for ``toolchain``: found in or compiled into the
    bytecode cache directory, else compiled into the per-run directory."""
    cache = os.path.dirname(importlib.util.cache_from_source(__file__))
    try:
        os.makedirs(cache, exist_ok=True)
        return codegen.compile_source(_SOURCE, toolchain, _flags(), cache)
    except OSError:  # the directory cannot be written
        return codegen.compile_source(_SOURCE, toolchain, _flags())


_capsule_pointer = ctypes.PYFUNCTYPE(
    ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p
)(("PyCapsule_GetPointer", ctypes.pythonapi))


def _addr(a: np.ndarray) -> int:
    return a.__array_interface__["data"][0]


def grow(lib: _Library, X: np.ndarray, y: np.ndarray, rank: np.ndarray,
         rows: np.ndarray, rngs, k: int, max_depth: int | None,
         min_samples_split: int, min_samples_leaf: int):
    """Run ``grow_forest``; returns ``(inodes, fnodes, roots, size)`` with
    ``size == -1`` for a degenerate split (see the C comment). The arrays
    are views of the call's buffers: copy what is kept.

    ``X`` (n, d) and ``y`` are contiguous float64, ``rank`` a contiguous
    int64 (d, ld) table with ld >= n, ``rows`` a contiguous int64 (T, m).
    """
    n, d = X.shape
    T, m = rows.shape
    per_tree = 2 * m - 1
    cap = T * per_tree
    # One int64 block (node ints, roots, generator pointers, work) and one
    # float64 block (node floats, work): few allocations and address reads.
    head = 2 * (d + 1) * m + m + 4 * per_tree + d * m  # offset of head in iwork
    iwork = 5 * cap + 2 * T
    ints = np.zeros(iwork + head + n + d + 2 * _SUM_TASKS, dtype=np.int64)
    ints[iwork + head:iwork + head + n] = -1
    floats = np.empty(2 * cap + 4 * m + _SUM_TASKS)
    bwork = np.zeros(m + d, dtype=np.uint8)
    inodes = ints[:5 * cap].reshape(5, cap)
    roots, gens = ints[5 * cap:iwork].reshape(2, T)
    fnodes = floats[:2 * cap].reshape(2, cap)
    at_i, at_f = _addr(ints), _addr(floats)
    args = (
        _addr(X), _addr(y), _addr(rank), rank.shape[1], _addr(rows),
        at_i + 8 * (5 * cap + T), n, d, T, m, k,
        -1 if max_depth is None else max_depth, min_samples_split,
        min_samples_leaf, at_i, at_f, at_i + 8 * 5 * cap, at_i + 8 * iwork,
        at_f + 8 * 2 * cap, _addr(bwork),
    )
    if k >= d:
        return inodes, fnodes, roots, lib.grow_forest(*args)
    # Each tree draws from its own generator's next_uint32, in place, so
    # the generators end in the state Generator.choice would leave them in.
    bit_generators = [rng.bit_generator for rng in rngs]
    gens[:] = [_capsule_pointer(bg.capsule, b"BitGenerator") for bg in bit_generators]
    locks = list({id(bg.lock): bg.lock for bg in bit_generators}.values())
    for lock in locks:
        lock.acquire()
    try:
        size = lib.grow_forest(*args)
    finally:
        for lock in reversed(locks):
            lock.release()
    return inodes, fnodes, roots, size


def walk(lib: _Library, X: np.ndarray, trees) -> np.ndarray:
    """Per-tree leaf values of :class:`~repro.ml.tree.TreeArrays` ``trees``
    for every row of the contiguous float64 ``X``."""
    feature, left, right, roots = (
        np.ascontiguousarray(a, dtype=np.int64)
        for a in (trees.feature, trees.left, trees.right, trees.roots)
    )
    threshold, value = (
        np.ascontiguousarray(a, dtype=float) for a in (trees.threshold, trees.value)
    )
    out = np.empty((roots.size, X.shape[0]))
    lib.walk_forest(
        _addr(X), X.shape[0], X.shape[1], _addr(feature), _addr(threshold),
        _addr(left), _addr(right), _addr(value), _addr(roots), roots.size,
        _addr(out),
    )
    return out
