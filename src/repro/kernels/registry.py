"""Benchmark registry: everything a tuner needs for one (kernel, size) pair.

A :class:`KernelBenchmark` bundles the tunable parameter list and candidate
values (Table 1), the TE schedule builder (for real execution), a runnable
end-to-end factory for the blocked solvers, and the Swing performance profile
(with the paper's reported best runtime as the calibration anchor). Each
builder imports its kernel module (and with it :mod:`repro.te`) when first
called, so a Swing-priced benchmark never loads the compiler.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.configspace import ConfigurationSpace
from repro.kernels.problem_sizes import SolverSize, ThreeMMSize, problem_size
from repro.kernels.spaces import build_config_space, param_candidates
from repro.swing.profile import GemmStageProfile, KernelProfile

if TYPE_CHECKING:
    from repro.te.schedule import Schedule
    from repro.te.tensor import Tensor

#: Best runtimes the paper reports (seconds); calibration anchors for the model.
#: 3mm/large is not reported in the paper — extrapolated from 3mm/extralarge by
#: the flop ratio (≈8.2×) for use in ablation benchmarks only.
PAPER_BEST_RUNTIMES: dict[tuple[str, str], float] = {
    ("lu", "large"): 1.659,
    ("lu", "extralarge"): 13.77,
    ("cholesky", "large"): 1.65,
    ("cholesky", "extralarge"): 13.99,
    ("3mm", "extralarge"): 30.99,
    ("3mm", "large"): 3.8,
}

#: Best configurations ("tensor sizes") the paper reports, for EXPERIMENTS.md.
PAPER_BEST_CONFIGS: dict[tuple[str, str], str] = {
    ("lu", "large"): "400x50 (ytopt, 1.659s)",
    ("lu", "extralarge"): "40x32 (ytopt, 13.77s)",
    ("cholesky", "large"): "50x50 (AutoTVM-GA, 1.65s); 125x50 (ytopt, 1.66s)",
    ("cholesky", "extralarge"): "80x32 (ytopt, 13.99s)",
    ("3mm", "extralarge"): "(1000x32, 600x2, 15x40) (AutoTVM-XGB, 30.99s); "
    "(1x5, 120x25, 60x100) (ytopt, 31.1s)",
}


@dataclass(frozen=True)
class KernelBenchmark:
    """One tunable experiment: kernel + problem size."""

    kernel: str
    size_name: str
    params: tuple[str, ...]
    candidates: dict[str, tuple[int, ...]]
    profile: KernelProfile
    #: params -> (Schedule, args); real-execution path (use small sizes!).
    schedule_builder: Callable[[Mapping[str, int]], tuple[Schedule, Sequence[Tensor]]]
    #: params -> end-to-end runnable (blocked solvers); None for pure-TE kernels.
    runner_factory: "Callable[[Mapping[str, int]], Callable[[np.ndarray], np.ndarray]] | None" = None

    @property
    def name(self) -> str:
        return f"{self.kernel}-{self.size_name}"

    def config_space(self, seed: int | None = None) -> ConfigurationSpace:
        return build_config_space(self.kernel, self.size_name, seed=seed)

    def space_size(self) -> int:
        total = 1
        for c in self.candidates.values():
            total *= len(c)
        return total


def _threemm_benchmark(size_name: str) -> KernelBenchmark:
    size = problem_size("3mm", size_name)
    assert isinstance(size, ThreeMMSize)
    cands = param_candidates("3mm", size_name)
    profile = KernelProfile(
        kernel="3mm",
        size_name=size_name,
        stages=(
            GemmStageProfile("E", size.n, size.m, size.l, "P0", "P1"),
            GemmStageProfile("F", size.m, size.p, size.o, "P2", "P3"),
            GemmStageProfile("G", size.n, size.p, size.m, "P4", "P5"),
        ),
        paper_best=PAPER_BEST_RUNTIMES.get(("3mm", size_name)),
        param_candidates=cands,
    )

    def schedule_builder(params: Mapping[str, int]):
        from repro.kernels.threemm import threemm_tuned

        return threemm_tuned(size, params)

    return KernelBenchmark(
        kernel="3mm",
        size_name=size_name,
        params=("P0", "P1", "P2", "P3", "P4", "P5"),
        candidates=cands,
        profile=profile,
        schedule_builder=schedule_builder,
    )


def _solver_benchmark(kernel: str, size_name: str) -> KernelBenchmark:
    size = problem_size(kernel, size_name)
    assert isinstance(size, SolverSize)
    n = size.n
    cands = param_candidates(kernel, size_name)
    flops_scale = 1.0 / 3.0 if kernel == "lu" else 1.0 / 6.0
    launches = max(1, n // 64)
    profile = KernelProfile(
        kernel=kernel,
        size_name=size_name,
        stages=(
            GemmStageProfile(
                "trailing_update", n, n, n, "P0", "P1",
                flops_scale=flops_scale, launches=launches,
            ),
        ),
        paper_best=PAPER_BEST_RUNTIMES.get((kernel, size_name)),
        param_candidates=cands,
    )
    if kernel == "lu":
        def schedule_builder(params: Mapping[str, int]):
            from repro.kernels.lu import lu_trailing_update_tuned

            depth = min(64, n)
            return lu_trailing_update_tuned(n, n, depth, params)

        def runner_factory(params: Mapping[str, int]):
            from repro.kernels.lu import BlockedLU

            return BlockedLU(n, params, panel=min(8, n))
    else:
        def schedule_builder(params: Mapping[str, int]):
            from repro.kernels.cholesky import cholesky_trailing_update_tuned

            depth = min(64, n)
            return cholesky_trailing_update_tuned(n, depth, params)

        def runner_factory(params: Mapping[str, int]):
            from repro.kernels.cholesky import BlockedCholesky

            return BlockedCholesky(n, params, panel=min(8, n))

    return KernelBenchmark(
        kernel=kernel,
        size_name=size_name,
        params=("P0", "P1"),
        candidates=cands,
        profile=profile,
        schedule_builder=schedule_builder,
        runner_factory=runner_factory,
    )


def get_benchmark(kernel: str, size_name: str) -> KernelBenchmark:
    """Look up (and construct) the benchmark for a kernel + problem size.

    The paper's three kernels are built here; anything else is delegated to
    the pluggable :mod:`repro.bench` registry (imported lazily to keep the
    module cycle ``bench -> kernels`` one-directional at import time).
    Unknown kernels and sizes raise the typed
    :class:`~repro.common.errors.RegistryError` listing what is available.
    """
    if kernel == "3mm":
        return _threemm_benchmark(size_name)
    if kernel in ("lu", "cholesky"):
        return _solver_benchmark(kernel, size_name)
    from repro.bench.registry import get_benchmark as bench_get_benchmark

    return bench_get_benchmark(kernel, size_name)


def list_benchmarks() -> list[tuple[str, str]]:
    """All (kernel, size) pairs of the paper's evaluation."""
    return [
        ("3mm", "large"),
        ("3mm", "extralarge"),
        ("cholesky", "large"),
        ("cholesky", "extralarge"),
        ("lu", "large"),
        ("lu", "extralarge"),
    ]
