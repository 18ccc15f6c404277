"""PolyBench 4.2 plugin benchmarks: gemm, syrk, trmm, jacobi-2d.

Four kernels beyond the paper's three, wired through the plugin path of
:mod:`repro.bench.registry` rather than hand-listed in
:mod:`repro.kernels.registry`. Each gets:

* a :class:`~repro.kernels.registry.KernelBenchmark` (the same dataclass the
  paper kernels use, so every tuner — ytopt, AutoTVM, GP, TPE — drives them
  unchanged),
* a Swing :class:`~repro.swing.profile.KernelProfile` so the simulated A100
  prices configurations (no ``paper_best`` — the paper does not report these
  kernels, so the model stays uncalibrated/raw),
* a numpy reference check (:func:`reference_check`) used by the conformance
  battery's backend-parity tests.

The jacobi-2d profile folds all TSTEPS sweeps into one pseudo-stage with
``m = n·tsteps`` rows and reduction depth 5 (the 5-point neighborhood): the
model's blocked-traffic term ``m·k/tx + k·n/ty`` then reproduces exactly the
halo re-read overhead a tiled stencil pays, so tile choice shapes the
landscape the way it does on real hardware (bandwidth-bound, broad sweet spot
at mid-size tiles).
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.bench.registry import BenchmarkEntry, register_benchmark
from repro.common.errors import RegistryError
from repro.kernels.problem_sizes import (
    PROBLEM_SIZES,
    GemmSize,
    RankUpdateSize,
    StencilSize,
    problem_size,
)
from repro.kernels.reference import gemm_reference, syrk_reference, trmm_reference
from repro.kernels.registry import KernelBenchmark
from repro.kernels.spaces import param_candidates
from repro.swing.profile import GemmStageProfile, KernelProfile

#: The plugin kernels and the sizes they register (all PolyBench presets).
PLUGIN_KERNELS = ("gemm", "syrk", "trmm", "jacobi2d")

#: PolyBench default scalar coefficients (shared by molds and references).
ALPHA, BETA = 1.5, 1.2


def _profile(kernel: str, size_name: str, stage: GemmStageProfile) -> KernelProfile:
    return KernelProfile(
        kernel=kernel,
        size_name=size_name,
        stages=(stage,),
        paper_best=None,
        param_candidates=param_candidates(kernel, size_name),
    )


def gemm_benchmark(size_name: str) -> KernelBenchmark:
    size = problem_size("gemm", size_name)
    assert isinstance(size, GemmSize)

    def schedule_builder(params: Mapping[str, int]):
        from repro.kernels.extra import gemm_tuned

        return gemm_tuned(size.ni, size.nj, size.nk, params, alpha=ALPHA, beta=BETA)

    return KernelBenchmark(
        kernel="gemm",
        size_name=size_name,
        params=("P0", "P1"),
        candidates=param_candidates("gemm", size_name),
        profile=_profile(
            "gemm", size_name,
            GemmStageProfile("AB", size.ni, size.nj, size.nk, "P0", "P1"),
        ),
        schedule_builder=schedule_builder,
    )


def syrk_benchmark(size_name: str) -> KernelBenchmark:
    size = problem_size("syrk", size_name)
    assert isinstance(size, RankUpdateSize)

    def schedule_builder(params: Mapping[str, int]):
        from repro.kernels.extra import syrk_tuned

        return syrk_tuned(size.n, size.m, params, alpha=ALPHA, beta=BETA)

    return KernelBenchmark(
        kernel="syrk",
        size_name=size_name,
        params=("P0", "P1"),
        candidates=param_candidates("syrk", size_name),
        profile=_profile(
            "syrk", size_name,
            GemmStageProfile("AAT", size.n, size.n, size.m, "P0", "P1"),
        ),
        schedule_builder=schedule_builder,
    )


def trmm_benchmark(size_name: str) -> KernelBenchmark:
    size = problem_size("trmm", size_name)
    assert isinstance(size, RankUpdateSize)

    def schedule_builder(params: Mapping[str, int]):
        from repro.kernels.extra import trmm_tuned

        return trmm_tuned(size.n, size.m, params, alpha=ALPHA)

    # Output is (M, N) = (size.n, size.m); the masked reduction over k > i
    # touches half the (M-deep) reduction on average.
    return KernelBenchmark(
        kernel="trmm",
        size_name=size_name,
        params=("P0", "P1"),
        candidates=param_candidates("trmm", size_name),
        profile=_profile(
            "trmm", size_name,
            GemmStageProfile(
                "ACC", size.n, size.m, size.n, "P0", "P1", flops_scale=0.5
            ),
        ),
        schedule_builder=schedule_builder,
    )


#: Real-execution sweep cap: the schedule builder emits one TE stage per time
#: step, and mini already means 20 sweeps of a 30x30 grid — plenty to compile
#: and validate without making LocalEvaluator runs take minutes.
_JACOBI_EXEC_TSTEPS = 4


def jacobi2d_benchmark(size_name: str) -> KernelBenchmark:
    size = problem_size("jacobi2d", size_name)
    assert isinstance(size, StencilSize)
    exec_tsteps = min(size.tsteps, _JACOBI_EXEC_TSTEPS)

    def schedule_builder(params: Mapping[str, int]):
        from repro.kernels.stencil import jacobi2d_tuned

        return jacobi2d_tuned(size.n, exec_tsteps, params)

    return KernelBenchmark(
        kernel="jacobi2d",
        size_name=size_name,
        params=("P0", "P1"),
        candidates=param_candidates("jacobi2d", size_name),
        profile=_profile(
            "jacobi2d", size_name,
            GemmStageProfile(
                "sweeps",
                m=size.n * size.tsteps,
                n=size.n,
                k=5,  # the 5-point neighborhood gather
                param_y="P0",
                param_x="P1",
                flops_scale=0.6,  # 6 flops per point vs the 2·k GEMM count
                launches=size.tsteps,
            ),
        ),
        schedule_builder=schedule_builder,
    )


_FACTORIES = {
    "gemm": gemm_benchmark,
    "syrk": syrk_benchmark,
    "trmm": trmm_benchmark,
    "jacobi2d": jacobi2d_benchmark,
}

_DESCRIPTIONS = {
    "gemm": "C = alpha*A*B + beta*C (PolyBench gemm)",
    "syrk": "symmetric rank-k update C = alpha*A*A^T + beta*C",
    "trmm": "triangular matmul B = alpha*A^T*B (masked reduction)",
    "jacobi2d": "jacobi-2d 5-point stencil, TSTEPS sweeps (bandwidth-bound)",
}


def reference_check(
    kernel: str,
    size_name: str,
    output: np.ndarray,
    inputs: Mapping[str, np.ndarray],
    rtol: float = 1e-10,
    atol: float = 1e-10,
) -> None:
    """Assert a kernel's output matches its numpy PolyBench reference.

    ``inputs`` holds the input buffers keyed by placeholder name (as returned
    by the benchmark's schedule builder args). Raises ``AssertionError`` on
    mismatch — this is the conformance battery's correctness oracle.
    """
    if kernel == "gemm":
        expect = gemm_reference(ALPHA, BETA, inputs["C"], inputs["A"], inputs["B"])
    elif kernel == "syrk":
        expect = syrk_reference(ALPHA, BETA, inputs["C"], inputs["A"])
    elif kernel == "trmm":
        expect = trmm_reference(ALPHA, inputs["A"], inputs["B"])
    elif kernel == "jacobi2d":
        from repro.kernels.stencil import jacobi2d_reference

        size = problem_size("jacobi2d", size_name)
        assert isinstance(size, StencilSize)
        expect = jacobi2d_reference(
            inputs["A"], min(size.tsteps, _JACOBI_EXEC_TSTEPS)
        )
    else:
        raise RegistryError("plugin kernel", kernel, list(_FACTORIES))
    np.testing.assert_allclose(output, expect, rtol=rtol, atol=atol)


def register_builtin_benchmarks() -> None:
    """Register the paper's kernels (auto-adapted) plus the plugins."""
    from repro.kernels.registry import _solver_benchmark, _threemm_benchmark

    register_benchmark(
        BenchmarkEntry(
            kernel="3mm",
            sizes=tuple(PROBLEM_SIZES["3mm"]),
            factory=lambda size: _threemm_benchmark(size),
            description="G = (A*B)*(C*D), three chained matmuls (paper kernel)",
            tags=("paper",),
        ),
        replace=True,
    )
    for kernel in ("lu", "cholesky"):
        register_benchmark(
            BenchmarkEntry(
                kernel=kernel,
                sizes=tuple(PROBLEM_SIZES[kernel]),
                factory=(lambda k: lambda size: _solver_benchmark(k, size))(kernel),
                description=f"blocked {kernel} factorization (paper kernel)",
                tags=("paper",),
            ),
            replace=True,
        )
    for kernel in PLUGIN_KERNELS:
        register_benchmark(
            BenchmarkEntry(
                kernel=kernel,
                sizes=tuple(PROBLEM_SIZES[kernel]),
                factory=_FACTORIES[kernel],
                description=_DESCRIPTIONS[kernel],
                tags=("polybench", "plugin"),
            ),
            replace=True,
        )
