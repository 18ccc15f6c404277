"""Differential battery: every backend tier computes the same answer.

Random configurations are drawn from the *registered* benchmark spaces (so
the tile factors are exactly the values the tuners explore, including ones
far larger than the loop extents) and instantiated on small problem shapes
where the reference interpreter finishes in milliseconds. Each instance is
lowered once and built under every explicitly pinned tier — tensorized,
vectorized-python codegen, interpreter — and all tiers must agree to
floating-point tolerance. The default ladder's tier decision must also be
deterministic: rebuilding the same PrimFunc always selects the same tier.

Shapes no registered kernel builds (multi-output schedules, a 3-D reduction
output with imperfect tiles) are written inline and checked against NumPy
on every tier.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.te as te
from repro.kernels import problem_size
from repro.kernels.cholesky import cholesky_trailing_update_tuned
from repro.kernels.extra import gemm_tuned, syrk_tuned, trmm_tuned
from repro.kernels.lu import lu_trailing_update_tuned
from repro.kernels.registry import get_benchmark, list_benchmarks
from repro.kernels.stencil import jacobi2d_tuned
from repro.kernels.threemm import threemm_tuned
from repro.runtime.module import BACKEND_TIERS, build_from_primfunc
from repro.tir import lower, simplify_func
from repro.tir.codegen_c import NativeToolchainError, find_toolchain

SEED = 1234
N_CONFIGS = 4

try:
    find_toolchain()
    HAS_TOOLCHAIN = True
except NativeToolchainError:  # pragma: no cover - CI images ship gcc
    HAS_TOOLCHAIN = False

# Each family: (registered space to sample configs from, small-shape builder).
# The PolyBench plugin kernels sample from their mini spaces (the conformance
# preset) and run on mini-or-smaller shapes so the interpreter tier stays fast.
FAMILIES = {
    "lu": ("lu", "large", lambda cfg: lu_trailing_update_tuned(24, 20, 8, cfg)),
    "cholesky": ("cholesky", "large", lambda cfg: cholesky_trailing_update_tuned(24, 8, cfg)),
    "3mm": ("3mm", "large", lambda cfg: threemm_tuned(problem_size("3mm", "mini"), cfg)),
    "gemm": ("gemm", "mini", lambda cfg: gemm_tuned(20, 25, 30, cfg)),
    "syrk": ("syrk", "mini", lambda cfg: syrk_tuned(20, 30, cfg)),
    "trmm": ("trmm", "mini", lambda cfg: trmm_tuned(20, 30, cfg)),
    "jacobi2d": ("jacobi2d", "mini", lambda cfg: jacobi2d_tuned(12, 2, cfg)),
}


def _random_configs(kernel: str, size_name: str, rng) -> list[dict[str, int]]:
    bench = get_benchmark(kernel, size_name)
    return [
        {p: bench.candidates[p][int(rng.integers(len(bench.candidates[p])))]
         for p in bench.params}
        for _ in range(N_CONFIGS)
    ]


def _buffers(args, rng) -> list[np.ndarray]:
    return [
        rng.standard_normal(t.shape).astype(t.dtype)
        if i < len(args) - 1
        else np.zeros(t.shape, dtype=t.dtype)
        for i, t in enumerate(args)
    ]


class TestTierOutputParity:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_all_tiers_agree_on_random_configs(self, family):
        kernel, size_name, make = FAMILIES[family]
        rng = np.random.default_rng(SEED)
        for cfg in _random_configs(kernel, size_name, rng):
            sched, args = make(cfg)
            func = simplify_func(lower(sched, args))
            outputs = {}
            selected = {}
            for tier in BACKEND_TIERS:
                mod = build_from_primfunc(func, backend=tier)
                # Pinning a tier still permits falling further down the
                # ladder (e.g. codegen -> interp on an unsupported nest),
                # but never climbing above the pin.
                assert BACKEND_TIERS.index(mod.backend) >= BACKEND_TIERS.index(tier)
                selected[tier] = mod.backend
                bufs = _buffers(args, np.random.default_rng(SEED))
                mod(*bufs)
                outputs[tier] = bufs[-1]
            # The ladder's fallback decision is a pure function of the
            # PrimFunc: a second build at each pin selects the same tier.
            for tier in BACKEND_TIERS:
                assert build_from_primfunc(func, backend=tier).backend == selected[tier]
            # The tensorized tier must cover the paper kernels outright, and
            # so must the native C tier whenever a toolchain exists.
            assert selected["tensor"] == "tensor", (
                f"{family} {cfg}: tensor tier fell back to {selected['tensor']}"
            )
            if HAS_TOOLCHAIN:
                assert selected["native"] == "native", (
                    f"{family} {cfg}: native tier fell back to "
                    f"{selected['native']}"
                )
            for tier in BACKEND_TIERS:
                if tier == "tensor":
                    continue
                np.testing.assert_allclose(
                    outputs[tier],
                    outputs["tensor"],
                    rtol=1e-9,
                    atol=1e-12,
                    err_msg=f"{family} {cfg}: {tier} disagrees with tensor",
                )

    def test_output_actually_nonzero(self):
        # Guard against the battery passing vacuously on all-zero outputs.
        kernel, size_name, make = FAMILIES["lu"]
        rng = np.random.default_rng(SEED)
        cfg = _random_configs(kernel, size_name, rng)[0]
        sched, args = make(cfg)
        func = simplify_func(lower(sched, args))
        mod = build_from_primfunc(func, backend="tensor")
        bufs = _buffers(args, np.random.default_rng(SEED))
        mod(*bufs)
        assert np.abs(bufs[-1]).max() > 0


def _two_reduction_outputs():
    """Two reductions as the schedule's outputs: ``s = Aᵀ·r``, ``q = A·p``."""
    A = te.placeholder((9, 7), name="A", dtype="float64")
    p = te.placeholder((7,), name="p", dtype="float64")
    r = te.placeholder((9,), name="r", dtype="float64")
    ki = te.reduce_axis((0, 9), name="ki")
    kj = te.reduce_axis((0, 7), name="kj")
    S = te.compute((7,), lambda j: te.sum(A[ki, j] * r[ki], axis=ki), name="s_out")
    Q = te.compute((9,), lambda i: te.sum(A[i, kj] * p[kj], axis=kj), name="q")
    sched = te.create_schedule([S.op, Q.op])
    sched[S].split(sched[S].op.axis[0], factor=1)
    sched[Q].split(sched[Q].op.axis[0], factor=3)
    return sched, [A, p, r], [S, Q], lambda a, p, r: (a.T @ r, a @ p)


def _two_epilogue_outputs(n=8):
    """Two outputs, each an epilogue over its own tiled reduction:
    ``x1 + A·y1`` and ``x2 + Aᵀ·y2``."""
    A = te.placeholder((n, n), name="A", dtype="float64")
    x1, x2, y1, y2 = (
        te.placeholder((n,), name=name, dtype="float64")
        for name in ("x1", "x2", "y1", "y2")
    )
    k1 = te.reduce_axis((0, n), name="k1")
    k2 = te.reduce_axis((0, n), name="k2")
    AV1 = te.compute((n,), lambda i: te.sum(A[i, k1] * y1[k1], axis=k1), name="Ay1")
    AV2 = te.compute((n,), lambda i: te.sum(A[k2, i] * y2[k2], axis=k2), name="Aty2")
    X1 = te.compute((n,), lambda i: x1[i] + AV1[i], name="x1_out")
    X2 = te.compute((n,), lambda i: x2[i] + AV2[i], name="x2_out")
    sched = te.create_schedule([X1.op, X2.op])
    sched[AV1].split(sched[AV1].op.axis[0], factor=4)
    sched[AV2].split(sched[AV2].op.axis[0], factor=2)
    return (
        sched,
        [A, x1, x2, y1, y2],
        [X1, X2],
        lambda a, x1, x2, y1, y2: (x1 + a @ y1, x2 + a.T @ y2),
    )


def _reduction_3d(nr, nq, np_, tq, tp, vectorize):
    """A 3-D output ``SUM[r, q, p] = Σ_s A[r, q, s]·C4[s, p]``, q and p
    tiled by ``tq`` and ``tp`` with the reduction between the tile levels."""
    A = te.placeholder((nr, nq, np_), name="A", dtype="float64")
    C4 = te.placeholder((np_, np_), name="C4", dtype="float64")
    k = te.reduce_axis((0, np_), name="s")
    SUM = te.compute(
        (nr, nq, np_),
        lambda r, q, p: te.sum(A[r, q, k] * C4[k, p], axis=k),
        name="SUM",
    )
    sched = te.create_schedule(SUM.op)
    _r, q, p = sched[SUM].op.axis
    qo, qi = sched[SUM].split(q, factor=tq)
    po, pi = sched[SUM].split(p, factor=tp)
    sched[SUM].reorder(qo, po, k, qi, pi)
    if vectorize:
        sched[SUM].vectorize(pi)
    return sched, [A, C4], [SUM], lambda a, c4: (np.einsum("rqs,sp->rqp", a, c4),)


INLINE_CASES = {
    "two-reductions": _two_reduction_outputs,
    "two-epilogues": _two_epilogue_outputs,
    "3d-reduction": lambda: _reduction_3d(3, 6, 8, 2, 4, vectorize=True),
    "3d-imperfect": lambda: _reduction_3d(2, 5, 6, 3, 4, vectorize=False),
}


class TestInlineShapes:
    @pytest.mark.parametrize("case", sorted(INLINE_CASES))
    def test_every_tier_matches_numpy(self, case):
        sched, inputs, outputs, reference = INLINE_CASES[case]()
        func = simplify_func(lower(sched, [*inputs, *outputs]))
        rng = np.random.default_rng(SEED)
        ins = [rng.standard_normal(t.shape).astype(t.dtype) for t in inputs]
        expect = reference(*ins)
        for tier in BACKEND_TIERS:
            mod = build_from_primfunc(func, backend=tier)
            if tier != "native" or HAS_TOOLCHAIN:
                assert mod.backend == tier, f"{case}: {tier} fell back to {mod.backend}"
            outs = [np.zeros(t.shape, dtype=t.dtype) for t in outputs]
            mod(*ins, *outs)
            for got, want in zip(outs, expect):
                np.testing.assert_allclose(
                    got, want, rtol=1e-9, atol=1e-12, err_msg=f"{case}: {tier}"
                )


class TestTierDecisionDeterminism:
    def test_registered_benchmarks_pick_same_tier_twice(self):
        """The ladder's fallback decision is a pure function of the PrimFunc."""
        rng = np.random.default_rng(SEED)
        for kernel, size_name in list_benchmarks():
            bench = get_benchmark(kernel, size_name)
            cfg = {p: bench.candidates[p][int(rng.integers(len(bench.candidates[p])))]
                   for p in bench.params}
            sched, args = bench.schedule_builder(cfg)
            func = simplify_func(lower(sched, args))
            first = build_from_primfunc(func).backend
            second = build_from_primfunc(func).backend
            assert first == second, f"{kernel}/{size_name} {cfg}: {first} != {second}"

    def test_small_instances_tier_decisions_stable(self):
        rng = np.random.default_rng(SEED)
        decisions = {}
        for family, (kernel, size_name, make) in sorted(FAMILIES.items()):
            for i, cfg in enumerate(_random_configs(kernel, size_name, rng)):
                sched, args = make(cfg)
                func = simplify_func(lower(sched, args))
                decisions[f"{family}#{i}"] = build_from_primfunc(func).backend
        # Same seed => same configs => same decisions on a second pass.
        rng = np.random.default_rng(SEED)
        for family, (kernel, size_name, make) in sorted(FAMILIES.items()):
            for i, cfg in enumerate(_random_configs(kernel, size_name, rng)):
                sched, args = make(cfg)
                func = simplify_func(lower(sched, args))
                assert build_from_primfunc(func).backend == decisions[f"{family}#{i}"]
