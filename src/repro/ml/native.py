"""Compiled tree growing and walking, forest fitting and candidate pools.

One small C library behind :mod:`repro.ml.tree`, :mod:`repro.ml.forest` and
:class:`repro.ytopt.Optimizer`. Each entry point gives the same bits, and
leaves every generator it draws from in the same state, as the NumPy code it
stands in for, which stays as the fallback:

* ``grow_forest`` grows every tree of a :func:`repro.ml.tree.grow_trees`
  call, one after another in preorder (the contract is spelled out in
  ``repro.ml.tree``'s docstring). With ``k < d`` candidate features a node
  draws them from its tree's generator, a replay of
  ``Generator.choice(d, k, replace=False)``;
* ``fit_forest`` is :meth:`RandomForestRegressor.fit
  <repro.ml.forest.RandomForestRegressor.fit>`: per tree it draws the seed
  (``spawn_seed``: ``integers(0, 2**63 - 1)``, Lemire's method on 64-bit
  draws) and the bootstrap rows (``integers(0, n, size=n)``, Lemire's method
  on 32-bit draws) from the forest generator, seeds the tree's PCG64 as
  ``np.random.default_rng(seed)`` does when features are drawn
  (``seed_pcg64``: SeedSequence's entropy mixing, ``generate_state`` and
  ``pcg64_set_seed``), then runs ``grow_forest``;
* ``draw_pool`` is ``Optimizer._index_pool``'s rows: the
  ``Generator.integers(cardinalities, size=(n, d))`` index draw, element by
  element, the rows whose codes are new, then the incumbents'
  ``IndexView.neighbors`` rows;
* ``walk_forest`` looks up each (tree, row) pair's leaf for
  :meth:`repro.ml.tree.TreeArrays.predict`.

The library is looked up on the first fit, predict or candidate pool of
the process, with the toolchain probe and compile step the native kernel
tier uses (:func:`repro.common.toolchain.find_toolchain`,
:func:`~repro.common.toolchain.compile_source`), so ``REPRO_CC`` applies to
it too; the kernel compiler itself (:mod:`repro.tir`) is not loaded. It
derives from this module's source as the module's bytecode does, and is
cached beside it: ``<key>.so`` in the ``__pycache__`` directory that holds
this module's ``.pyc`` (``PYTHONPYCACHEPREFIX`` moves it), keyed by
:func:`~repro.common.toolchain.native_key` (source, toolchain, flags,
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
and any number of threads may call it at once. A call draws through the
``next_uint64``/``next_uint32`` of the NumPy bit generators it is given, in
place, so any bit generator works and its buffered half-word is honoured;
the caller holds their locks for the call's duration. The generators
``fit_forest`` seeds for its trees live in the call's buffers.
"""

from __future__ import annotations

import ctypes
import importlib.util
import os
import threading

import numpy as np

from repro.common import toolchain

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

/* The high word of a * b; *lo gets the low word. */
static u64 mul128(u64 a, u64 b, u64 *lo)
{
    u64 a0 = (u32)a, a1 = a >> 32, b0 = (u32)b, b1 = b >> 32;
    u64 p00 = a0 * b0, p01 = a0 * b1, p10 = a1 * b0;
    u64 mid = (p00 >> 32) + (u32)p01 + (u32)p10;
    *lo = (mid << 32) | (u32)p00;
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32);
}

/* NumPy's random_bounded_uint64(gen, 0, rng, 0, 0), the draw behind every
   Generator.integers call here, for rng < 2**64 - 1: no draw for rng 0;
   Lemire's method on 32-bit draws below 2**32 - 1
   (buffered_bounded_lemire_uint32); one 32-bit draw at 2**32 - 1; Lemire's
   method on 64-bit draws above (bounded_lemire_uint64). */
static u64 bounded(bitgen_t *gen, u64 rng)
{
    if (rng == 0)
        return 0;
    if (rng == 0xFFFFFFFFu)
        return gen->next_uint32(gen->state);
    if (rng < 0xFFFFFFFFu) {
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
    u64 excl = rng + 1, leftover;
    u64 m = mul128(gen->next_uint64(gen->state), excl, &leftover);
    if (leftover < excl) {
        u64 threshold = (0xFFFFFFFFFFFFFFFFull - rng) % excl;
        while (leftover < threshold)
            m = mul128(gen->next_uint64(gen->state), excl, &leftover);
    }
    return m;
}

/* NumPy's PCG64 (numpy/random/src/pcg64): a 128-bit LCG with an XSL-RR
   output, held as (high, low) words, and the upper half of the last 64-bit
   output, which next_uint32 returns next when has_uint32 is set. */
typedef struct {
    u64 state[2], inc[2];
    u64 has_uint32, uinteger;
} pcg64_t;

static void pcg64_step(pcg64_t *p)
{
    const u64 mul_hi = 2549297995355413924ull, mul_lo = 4865540595714422341ull;
    u64 lo, hi = mul128(p->state[1], mul_lo, &lo);
    hi += p->state[0] * mul_lo + p->state[1] * mul_hi;
    u64 sum = lo + p->inc[1];
    p->state[0] = hi + p->inc[0] + (sum < lo);
    p->state[1] = sum;
}

static u64 pcg64_next64(void *s)
{
    pcg64_t *p = s;
    pcg64_step(p);
    u64 x = p->state[0] ^ p->state[1];
    unsigned rot = (unsigned)(p->state[0] >> 58);
    return (x >> rot) | (x << ((64 - rot) & 63));
}

static u32 pcg64_next32(void *s)
{
    pcg64_t *p = s;
    if (p->has_uint32) {
        p->has_uint32 = 0;
        return (u32)p->uinteger;
    }
    u64 next = pcg64_next64(p);
    p->has_uint32 = 1;
    p->uinteger = next >> 32;
    return (u32)next;
}

/* SeedSequence's hash of one word, which advances its multiplier. */
static u32 hashmix(u32 value, u32 *hash)
{
    value ^= *hash;
    *hash *= 0x931e8875u;
    value *= *hash;
    return value ^ (value >> 16);
}

static u32 mix(u32 x, u32 y)
{
    u32 r = 0xca01f9ddu * x - 0x4973f715u * y;
    return r ^ (r >> 16);
}

/* *p = the PCG64 of np.random.default_rng(seed): SeedSequence(seed) mixes
   the seed's 32-bit words (one below 2**32) into a 4-word pool
   (mix_entropy), generate_state(4, uint64) expands the pool, and
   pcg64_set_seed seeds from the four words, with nothing buffered. */
void seed_pcg64(u64 seed, pcg64_t *p)
{
    u32 entropy[2] = {(u32)seed, (u32)(seed >> 32)}, pool[4];
    u32 hash = 0x43b0d7e5u;
    for (int i = 0; i < 4; i++)
        pool[i] = hashmix(i < 1 + (seed >> 32 != 0) ? entropy[i] : 0, &hash);
    for (int src = 0; src < 4; src++)
        for (int dst = 0; dst < 4; dst++)
            if (src != dst)
                pool[dst] = mix(pool[dst], hashmix(pool[src], &hash));
    u64 words[4];
    hash = 0x8b51f9ddu;
    for (int i = 0; i < 8; i++) {
        u32 v = pool[i % 4] ^ hash;
        hash *= 0x58f38dedu;
        v *= hash;
        v ^= v >> 16;
        if (i % 2)
            words[i / 2] |= (u64)v << 32;
        else
            words[i / 2] = v;
    }
    /* pcg_setseq_128_srandom_r(initstate = words[0:2], initseq = words[2:4]) */
    p->inc[0] = words[2] << 1 | words[3] >> 63;
    p->inc[1] = words[3] << 1 | 1;
    p->state[0] = 0;
    p->state[1] = 0;
    pcg64_step(p);
    u64 low = p->state[1] + words[1];
    p->state[0] += words[0] + (low < words[1]);
    p->state[1] = low;
    pcg64_step(p);
    p->has_uint32 = 0;
    p->uinteger = 0;
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

/* A tree's own generator in fit_forest: a bitgen_t over a PCG64. */
typedef struct {
    bitgen_t gen;
    pcg64_t pcg;
} tree_gen;

_Static_assert(sizeof(tree_gen) == 8 * 11, "tree_gen is 11 words");

/* RandomForestRegressor.fit: the draws of its NumPy loop, then grow_forest
   over n samples per tree. For each tree, from parent (the forest's
   generator), in order: its seed, as spawn_seed draws it
   (integers(0, 2**63 - 1)); its rows, as integers(0, n, size=n) draws
   them, or 0 ... n-1 without bootstrap; and, when k < d, its generator,
   the PCG64 of default_rng(seed), which grow_forest draws from. rows
   (n_trees x n), gens (n_trees) and tgens (n_trees) are written; the other
   arguments are grow_forest's. */
i64 fit_forest(bitgen_t *parent, i64 bootstrap, tree_gen *tgens,
               const double *X, const double *y, const i64 *rank, i64 ld,
               i64 *rows, i64 *gens, i64 n, i64 d, i64 n_trees, i64 k,
               i64 max_depth, i64 min_split, i64 min_leaf, i64 *inodes,
               double *fnodes, i64 *roots, i64 *iwork, double *fwork, u8 *bwork)
{
    for (i64 t = 0; t < n_trees; t++) {
        u64 seed = bounded(parent, 0x7FFFFFFFFFFFFFFEull);
        i64 *trow = rows + t * n;
        for (i64 s = 0; s < n; s++)
            trow[s] = bootstrap ? (i64)bounded(parent, (u64)(n - 1)) : s;
        if (k < d) {
            tree_gen *g = tgens + t;
            seed_pcg64(seed, &g->pcg);
            g->gen.state = &g->pcg;
            g->gen.next_uint64 = pcg64_next64;
            g->gen.next_uint32 = pcg64_next32;
            g->gen.next_double = 0;
            g->gen.next_raw = pcg64_next64;
            gens[t] = (i64)&g->gen;
        }
    }
    return grow_forest(X, y, rank, ld, rows, gens, n, d, n_trees, n, k,
                       max_depth, min_split, min_leaf, inodes, fnodes, roots,
                       iwork, fwork, bwork);
}

/* Add code to the open-addressing set table[0 : mask + 1] (-1 marks an
   empty slot); 1 if it was not there yet. */
static i64 insert(i64 *table, i64 mask, i64 code)
{
    u64 h = (u64)code * 0x9E3779B97F4A7C15ull;
    for (i64 i = (i64)(h >> 32) & mask;; i = (i + 1) & mask) {
        if (table[i] == code)
            return 0;
        if (table[i] < 0) {
            table[i] = code;
            return 1;
        }
    }
}

/* Optimizer._index_pool's rows into out, as many as returned. Draws n_cand
   rows of d value indexes from gen element by element, as
   Generator.integers(card, size=(n_cand, d)) does (none for a one-value
   column), and keeps each row whose code (its dot product with stride) is
   neither in taken[0:n_taken] nor an earlier row's. Then come the new
   codes among the IndexView.neighbors rows of the incumbents' codes
   inc[0:n_inc] in turn (per column, the first two in-range positions of
   -1, +1, -2, +2), until the pool holds limit rows, checked after each
   neighbour joins and after each incumbent's last. out holds
   n_cand + 2 * d * n_inc rows; the table has a power-of-two mask + 1
   slots, at least twice the codes it can receive, all -1 on entry. */
i64 draw_pool(bitgen_t *gen, const i64 *card, const i64 *stride, i64 d,
              i64 n_cand, const i64 *taken, i64 n_taken, const i64 *inc,
              i64 n_inc, i64 limit, i64 *out, i64 *table, i64 mask)
{
    static const i64 steps[4] = {-1, 1, -2, 2};
    i64 size = 0;
    for (i64 i = 0; i < n_taken; i++)
        insert(table, mask, taken[i]);
    for (i64 r = 0; r < n_cand; r++) {
        i64 *row = out + size * d, code = 0;
        for (i64 j = 0; j < d; j++) {
            row[j] = (i64)bounded(gen, (u64)(card[j] - 1));
            code += row[j] * stride[j];
        }
        size += insert(table, mask, code);
    }
    for (i64 b = 0; b < n_inc; b++) {
        for (i64 j = 0; j < d; j++) {
            i64 at = inc[b] / stride[j] % card[j], found = 0;
            for (i64 s = 0; s < 4 && found < 2; s++) {
                i64 pos = at + steps[s];
                if (pos < 0 || pos >= card[j])
                    continue;
                found++;
                i64 code = inc[b] + (pos - at) * stride[j];
                if (!insert(table, mask, code))
                    continue;
                i64 *row = out + size * d;
                for (i64 c = 0; c < d; c++)
                    row[c] = inc[b] / stride[c] % card[c];
                row[j] = pos;
                if (++size >= limit)
                    return size;
            }
        }
        if (size >= limit)
            break;
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
    """The loaded library with its entry points' signatures set."""

    def __init__(self, path: str) -> None:
        lib = ctypes.CDLL(path)
        self.path = path
        ptr, i64 = ctypes.c_void_p, ctypes.c_int64
        work = [ptr, ptr, ptr, ptr, ptr, ptr]  # node arrays and work space
        self.grow_forest = lib.grow_forest
        self.grow_forest.restype = i64
        self.grow_forest.argtypes = [
            ptr, ptr, ptr, i64, ptr, ptr, i64, i64, i64, i64, i64, i64, i64, i64,
            *work,
        ]
        self.fit_forest = lib.fit_forest
        self.fit_forest.restype = i64
        self.fit_forest.argtypes = [
            ptr, i64, ptr, ptr, ptr, ptr, i64, ptr, ptr, i64, i64, i64, i64, i64,
            i64, i64, *work,
        ]
        self.draw_pool = lib.draw_pool
        self.draw_pool.restype = i64
        self.draw_pool.argtypes = [ptr, ptr, ptr, i64, i64, ptr, i64, ptr, i64,
                                   i64, ptr, ptr, i64]
        self.seed_pcg64 = lib.seed_pcg64
        self.seed_pcg64.restype = None
        self.seed_pcg64.argtypes = [ctypes.c_uint64, ptr]
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
    return toolchain.CC_FLAGS + ("-ffp-contract=off",)


def library() -> "_Library | None":
    """The compiled library for the current ``REPRO_CC``, built on first use;
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
    try:
        tc = toolchain.find_toolchain()
    except toolchain.NativeToolchainError:
        return None
    if tc.fingerprint not in _by_toolchain:
        try:
            _by_toolchain[tc.fingerprint] = _Library(_build(tc))
        except (toolchain.NativeCompileError, OSError, AttributeError):
            _by_toolchain[tc.fingerprint] = None
    return _by_toolchain[tc.fingerprint]


def _build(tc: toolchain.Toolchain) -> str:
    """Path of the library for ``tc``: found in or compiled into the
    bytecode cache directory, else compiled into the per-run directory."""
    cache = os.path.dirname(importlib.util.cache_from_source(__file__))
    try:
        os.makedirs(cache, exist_ok=True)
        return toolchain.compile_source(_SOURCE, tc, _flags(), cache)
    except OSError:  # the directory cannot be written
        return toolchain.compile_source(_SOURCE, tc, _flags())


_capsule_pointer = ctypes.PYFUNCTYPE(
    ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p
)(("PyCapsule_GetPointer", ctypes.pythonapi))


def _addr(a: np.ndarray) -> int:
    return a.__array_interface__["data"][0]


#: int64 words of fit_forest's per-tree generator (a bitgen_t and a PCG64).
_TREE_GEN_WORDS = 11


class _Forest:
    """The node arrays and work space of one ``grow_forest`` call: ``T``
    trees of ``m`` samples drawn from ``n`` samples of ``d`` features.

    One int64 block holds the node ints, the roots, the tree generator
    pointers, ``extra`` words for the caller and the work space; one float64
    block the node floats and work: few allocations and address reads.
    """

    def __init__(self, n: int, d: int, T: int, m: int, extra: int = 0) -> None:
        per_tree = 2 * m - 1
        cap = T * per_tree
        head = 2 * (d + 1) * m + m + 4 * per_tree + d * m  # offset of head in iwork
        iwork = 5 * cap + 2 * T + extra
        self.ints = np.zeros(iwork + head + n + d + 2 * _SUM_TASKS, dtype=np.int64)
        self.ints[iwork + head:iwork + head + n] = -1
        self.floats = np.empty(2 * cap + 4 * m + _SUM_TASKS)
        self.bwork = np.zeros(m + d, dtype=np.uint8)
        self.inodes = self.ints[:5 * cap].reshape(5, cap)
        self.fnodes = self.floats[:2 * cap].reshape(2, cap)
        self.roots = self.ints[5 * cap:5 * cap + T]
        at_i, at_f = _addr(self.ints), _addr(self.floats)
        self.gens = self.ints[5 * cap + T:5 * cap + 2 * T]
        self.at_gens = at_i + 8 * (5 * cap + T)
        self.at_extra = at_i + 8 * (5 * cap + 2 * T)
        # inodes, fnodes, roots, iwork, fwork, bwork
        self.work = (at_i, at_f, at_i + 8 * 5 * cap, at_i + 8 * iwork,
                     at_f + 8 * 2 * cap, _addr(self.bwork))

    def result(self, size: int):
        return self.inodes, self.fnodes, self.roots, size


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
    forest = _Forest(n, d, T, m)
    args = (
        _addr(X), _addr(y), _addr(rank), rank.shape[1], _addr(rows),
        forest.at_gens, n, d, T, m, k, -1 if max_depth is None else max_depth,
        min_samples_split, min_samples_leaf, *forest.work,
    )
    if k >= d:
        return forest.result(lib.grow_forest(*args))
    # Each tree draws from its own generator's next_uint32, in place, so
    # the generators end in the state Generator.choice would leave them in.
    bit_generators = [rng.bit_generator for rng in rngs]
    forest.gens[:] = [_capsule_pointer(bg.capsule, b"BitGenerator")
                      for bg in bit_generators]
    locks = list({id(bg.lock): bg.lock for bg in bit_generators}.values())
    for lock in locks:
        lock.acquire()
    try:
        size = lib.grow_forest(*args)
    finally:
        for lock in reversed(locks):
            lock.release()
    return forest.result(size)


def fit(lib: _Library, X: np.ndarray, y: np.ndarray, rank: np.ndarray,
        rng: np.random.Generator, n_trees: int, bootstrap: bool, k: int,
        max_depth: int | None, min_samples_split: int, min_samples_leaf: int):
    """Run ``fit_forest``: :meth:`RandomForestRegressor.fit
    <repro.ml.forest.RandomForestRegressor.fit>`'s draws from ``rng`` and
    its trees, in one call that holds ``rng``'s lock. Returns what
    :func:`grow` returns; ``X``, ``y``, ``rank`` and the tree parameters
    are as there.
    """
    n, d = X.shape
    forest = _Forest(n, d, n_trees, n, extra=n_trees * (n + _TREE_GEN_WORDS))
    bg = rng.bit_generator
    with bg.lock:
        size = lib.fit_forest(
            _capsule_pointer(bg.capsule, b"BitGenerator"), bootstrap,
            forest.at_extra + 8 * n_trees * n, _addr(X), _addr(y), _addr(rank),
            rank.shape[1], forest.at_extra, forest.at_gens, n, d, n_trees, k,
            -1 if max_depth is None else max_depth, min_samples_split,
            min_samples_leaf, *forest.work,
        )
    return forest.result(size)


def draw_pool(lib: _Library, rng: np.random.Generator, cardinalities: np.ndarray,
              strides: np.ndarray, n_candidates: int, taken: np.ndarray,
              incumbents: np.ndarray, limit: int) -> np.ndarray:
    """Run ``draw_pool`` (see the C comment) under ``rng``'s lock; returns
    the pool's int64 index rows. ``cardinalities``, ``strides``, ``taken``
    and ``incumbents`` (codes) are contiguous int64.
    """
    d = cardinalities.size
    rows = n_candidates + 2 * d * incumbents.size
    slots = 1 << (2 * (taken.size + rows) - 1).bit_length()
    work = np.empty(rows * d + slots, dtype=np.int64)
    work[rows * d:] = -1
    at = _addr(work)
    bg = rng.bit_generator
    with bg.lock:
        size = lib.draw_pool(
            _capsule_pointer(bg.capsule, b"BitGenerator"), _addr(cardinalities),
            _addr(strides), d, n_candidates, _addr(taken), taken.size,
            _addr(incumbents), incumbents.size, limit, at, at + 8 * rows * d,
            slots - 1,
        )
    return work[:size * d].reshape(size, d)


def pcg64_state(lib: _Library, seed: int) -> dict:
    """``np.random.PCG64(seed).state`` as ``seed_pcg64`` sets it, for
    ``0 <= seed < 2**64``."""
    words = np.zeros(6, dtype=np.uint64)
    lib.seed_pcg64(seed, _addr(words))
    state_hi, state_lo, inc_hi, inc_lo, has_uint32, uinteger = map(int, words)
    return {
        "bit_generator": "PCG64",
        "state": {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo},
        "has_uint32": has_uint32,
        "uinteger": uinteger,
    }


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
