"""The benchmark registry: everything a tuner needs for one (kernel, size) pair.

One table of :class:`BenchmarkEntry` (a kernel, its problem sizes and a
``size -> KernelBenchmark`` factory) holds all seven kernels the same way:
the paper's three (3mm, lu, cholesky) and the four PolyBench plugin kernels
(gemm, syrk, trmm, jacobi-2d). :func:`get_benchmark` is the one lookup every
caller goes through, and :func:`register_benchmark` adds or replaces an entry
(:mod:`repro.bench` re-exports both as its plugin API).

A :class:`KernelBenchmark` carries everything a caller needs about its
kernel, so nothing else looks a kernel up by name: the Swing performance
profile (calibrated to the paper's reported best runtime where the paper
reports one), whose candidate lists are the tuning space (Table 1), the TE
schedule builder (for real execution) and the output check. Builders import
their kernel module (and with it :mod:`repro.te`) and checks
:mod:`repro.kernels.reference` when first called, so a Swing-priced
benchmark loads neither the compiler nor the references.

The jacobi-2d profile folds all TSTEPS sweeps into one pseudo-stage with
``m = n·tsteps`` rows and reduction depth 5 (the 5-point neighborhood): the
model's blocked-traffic term ``m·k/tx + k·n/ty`` then reproduces the halo
re-read overhead a tiled stencil pays, so tile choice shapes the landscape
the way it does on real hardware (bandwidth-bound, broad sweet spot at
mid-size tiles).

Lookups raise the typed :class:`~repro.common.errors.RegistryError` carrying
the available entries, which is what ``repro list`` and service admission
render.
"""

from __future__ import annotations

import importlib
import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.common.divisors import divisors
from repro.common.errors import RegistryError
from repro.configspace import ConfigurationSpace, OrdinalHyperparameter
from repro.kernels.problem_sizes import (
    ALPHA,
    BETA,
    JACOBI_EXEC_TSTEPS,
    PROBLEM_SIZES,
    problem_size,
)
from repro.swing.profile import GemmStageProfile, KernelProfile

if TYPE_CHECKING:
    import numpy as np

    from repro.te.schedule import Schedule
    from repro.te.tensor import Tensor

ScheduleBuilder = Callable[[Mapping[str, int]], "tuple[Schedule, Sequence[Tensor]]"]
OutputCheck = Callable[["Sequence[np.ndarray]"], "str | None"]

#: Paper Table 1: parameter-space size for each (kernel, problem size).
TABLE1_SPACE_SIZES: dict[tuple[str, str], int] = {
    ("3mm", "large"): 74_649_600,
    ("3mm", "extralarge"): 228_614_400,
    ("cholesky", "large"): 400,
    ("cholesky", "extralarge"): 576,
    ("lu", "large"): 400,
    ("lu", "extralarge"): 576,
}

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
    #: The Swing model's view; its ``param_candidates`` are the space.
    profile: KernelProfile
    #: params -> (Schedule, args); real-execution path (use small sizes!).
    schedule_builder: ScheduleBuilder
    #: buffers, in the builder's argument order -> None when the output (the
    #: last one) matches the NumPy reference at rtol = atol = 1e-10, else a
    #: one-line message; the contract of ``LocalEvaluator(validate=)``.
    check: OutputCheck

    @property
    def name(self) -> str:
        return f"{self.kernel}-{self.size_name}"

    @property
    def candidates(self) -> dict[str, tuple[int, ...]]:
        """Each tunable parameter's values (Table 1), in declaration order."""
        return self.profile.param_candidates

    @property
    def params(self) -> tuple[str, ...]:
        return tuple(self.candidates)

    def config_space(self, seed: int | None = None) -> ConfigurationSpace:
        """The ytopt-side space: one OrdinalHyperparameter per parameter."""
        cs = ConfigurationSpace(name=self.name, seed=seed)
        for name, cands in self.candidates.items():
            cs.add_hyperparameter(OrdinalHyperparameter(name, list(cands)))
        return cs

    def space_size(self) -> int:
        """Total number of configurations (the Table 1 quantity)."""
        return math.prod(len(c) for c in self.candidates.values())


@dataclass(frozen=True)
class BenchmarkEntry:
    """One registered kernel: its sizes and a ``size -> KernelBenchmark``
    factory."""

    kernel: str
    sizes: tuple[str, ...]
    factory: Callable[[str], KernelBenchmark]
    description: str = ""
    tags: tuple[str, ...] = ()

    def build(self, size_name: str) -> KernelBenchmark:
        if size_name not in self.sizes:
            raise RegistryError(
                f"problem size for benchmark {self.kernel!r}",
                size_name,
                list(self.sizes),
            )
        return self.factory(size_name)


# -- the seven kernels -----------------------------------------------------


def _builder(module: str, function: str, *args, **kwargs) -> ScheduleBuilder:
    """``params -> function(*args, params, **kwargs)`` from
    ``repro.kernels.<module>``, imported (with the compiler) on first call."""

    def schedule_builder(params: Mapping[str, int]):
        kernel_module = importlib.import_module(f"repro.kernels.{module}")
        return getattr(kernel_module, function)(*args, params, **kwargs)

    return schedule_builder


def _check(kernel: str, expected: Callable[..., np.ndarray]) -> OutputCheck:
    """``buffers -> None | message``: the builder's output (its last
    argument) against ``expected(reference, *inputs)``, where ``reference``
    is :mod:`repro.kernels.reference`, imported on first call."""

    def check(buffers: Sequence[np.ndarray]) -> str | None:
        reference = importlib.import_module("repro.kernels.reference")
        *inputs, output = buffers
        return reference.mismatch(kernel, output, expected(reference, *inputs))

    return check


def _benchmark(
    kernel: str,
    size_name: str,
    extents: dict[str, int],
    stages: tuple[GemmStageProfile, ...],
    schedule_builder: ScheduleBuilder,
    check: OutputCheck,
) -> KernelBenchmark:
    """What every factory shares: each parameter's candidates are the
    divisors of the loop extent it splits (Table 1; ``extents`` names the
    parameters in order), and the Swing profile is calibrated to the paper's
    best runtime where the paper reports one."""
    return KernelBenchmark(
        kernel=kernel,
        size_name=size_name,
        profile=KernelProfile(
            kernel=kernel,
            size_name=size_name,
            stages=stages,
            paper_best=PAPER_BEST_RUNTIMES.get((kernel, size_name)),
            param_candidates={p: tuple(divisors(n)) for p, n in extents.items()},
        ),
        schedule_builder=schedule_builder,
        check=check,
    )


def _threemm(size_name: str) -> KernelBenchmark:
    size = problem_size("3mm", size_name)
    n, m, p = size.n, size.m, size.p
    # Stage E is (N, M), stage F is (M, P), stage G is (N, P).
    return _benchmark(
        "3mm", size_name,
        {"P0": n, "P1": m, "P2": m, "P3": p, "P4": n, "P5": p},
        (
            GemmStageProfile("E", size.n, size.m, size.l, "P0", "P1"),
            GemmStageProfile("F", size.m, size.p, size.o, "P2", "P3"),
            GemmStageProfile("G", size.n, size.p, size.m, "P4", "P5"),
        ),
        _builder("threemm", "threemm_tuned", size),
        _check("3mm", lambda ref, a, b, c, d: ref.threemm_reference(a, b, c, d)),
    )


def _trailing_update(n: int, flops_scale: float) -> tuple[GemmStageProfile, ...]:
    """The stage lu and cholesky tune: the N×N trailing update, one launch
    per 64 rows."""
    return (
        GemmStageProfile(
            "trailing_update", n, n, n, "P0", "P1",
            flops_scale=flops_scale, launches=max(1, n // 64),
        ),
    )


def _lu(size_name: str) -> KernelBenchmark:
    n = problem_size("lu", size_name).n
    return _benchmark(
        "lu", size_name,
        {"P0": n, "P1": n},
        _trailing_update(n, 1.0 / 3.0),
        _builder("lu", "lu_trailing_update_tuned", n, n, min(64, n)),
        _check("lu", lambda ref, l21, u12, trail: trail - l21 @ u12),
    )


def _cholesky(size_name: str) -> KernelBenchmark:
    n = problem_size("cholesky", size_name).n
    return _benchmark(
        "cholesky", size_name,
        {"P0": n, "P1": n},
        _trailing_update(n, 1.0 / 6.0),
        _builder("cholesky", "cholesky_trailing_update_tuned", n, min(64, n)),
        _check("cholesky", lambda ref, l21, trail: trail - l21 @ l21.T),
    )


def _gemm(size_name: str) -> KernelBenchmark:
    size = problem_size("gemm", size_name)
    # P0 tiles the output rows (NI), P1 the output columns (NJ).
    return _benchmark(
        "gemm", size_name,
        {"P0": size.ni, "P1": size.nj},
        (GemmStageProfile("AB", size.ni, size.nj, size.nk, "P0", "P1"),),
        _builder("extra", "gemm_tuned", size.ni, size.nj, size.nk, alpha=ALPHA, beta=BETA),
        _check("gemm", lambda ref, a, b, c: ref.gemm_reference(ALPHA, BETA, c, a, b)),
    )


def _syrk(size_name: str) -> KernelBenchmark:
    size = problem_size("syrk", size_name)
    return _benchmark(
        "syrk", size_name,
        {"P0": size.n, "P1": size.n},
        (GemmStageProfile("AAT", size.n, size.n, size.m, "P0", "P1"),),
        _builder("extra", "syrk_tuned", size.n, size.m, alpha=ALPHA, beta=BETA),
        _check("syrk", lambda ref, a, c: ref.syrk_reference(ALPHA, BETA, c, a)),
    )


def _trmm(size_name: str) -> KernelBenchmark:
    size = problem_size("trmm", size_name)
    # Output is (M, N) = (size.n, size.m); the masked reduction over k > i
    # touches half the (M-deep) reduction on average.
    return _benchmark(
        "trmm", size_name,
        {"P0": size.n, "P1": size.m},
        (GemmStageProfile("ACC", size.n, size.m, size.n, "P0", "P1", flops_scale=0.5),),
        _builder("extra", "trmm_tuned", size.n, size.m, alpha=ALPHA),
        _check("trmm", lambda ref, a, b: ref.trmm_reference(ALPHA, a, b)),
    )


def _jacobi2d(size_name: str) -> KernelBenchmark:
    size = problem_size("jacobi2d", size_name)
    tsteps = min(size.tsteps, JACOBI_EXEC_TSTEPS)  # execution caps the sweeps
    return _benchmark(
        "jacobi2d", size_name,
        {"P0": size.n, "P1": size.n},
        (
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
        _builder("stencil", "jacobi2d_tuned", size.n, tsteps),
        _check("jacobi2d", lambda ref, a: ref.jacobi2d_reference(a, tsteps)),
    )


def _entry(
    kernel: str,
    factory: Callable[[str], KernelBenchmark],
    description: str,
    tags: tuple[str, ...],
) -> BenchmarkEntry:
    """A built-in kernel at every PolyBench preset size."""
    return BenchmarkEntry(kernel, tuple(PROBLEM_SIZES[kernel]), factory, description, tags)


_PAPER, _PLUGIN = ("paper",), ("polybench", "plugin")

_BUILTINS = (
    _entry("3mm", _threemm, "G = (A*B)*(C*D), three chained matmuls (paper kernel)", _PAPER),
    _entry("lu", _lu, "blocked lu factorization (paper kernel)", _PAPER),
    _entry("cholesky", _cholesky, "blocked cholesky factorization (paper kernel)", _PAPER),
    _entry("gemm", _gemm, "C = alpha*A*B + beta*C (PolyBench gemm)", _PLUGIN),
    _entry("syrk", _syrk, "symmetric rank-k update C = alpha*A*A^T + beta*C", _PLUGIN),
    _entry("trmm", _trmm, "triangular matmul B = alpha*A^T*B (masked reduction)", _PLUGIN),
    _entry("jacobi2d", _jacobi2d,
           "jacobi-2d 5-point stencil, TSTEPS sweeps (bandwidth-bound)", _PLUGIN),
)

#: The PolyBench kernels beyond the paper's three.
PLUGIN_KERNELS = tuple(e.kernel for e in _BUILTINS if "plugin" in e.tags)

_BENCHMARKS: dict[str, BenchmarkEntry] = {e.kernel: e for e in _BUILTINS}


# -- the table -------------------------------------------------------------


def register_benchmark(entry: BenchmarkEntry, replace: bool = False) -> BenchmarkEntry:
    """Add a kernel to the registry; ``replace=False`` guards collisions."""
    if not replace and entry.kernel in _BENCHMARKS:
        raise RegistryError.duplicate("benchmark", entry.kernel)
    _BENCHMARKS[entry.kernel] = entry
    return entry


def benchmark_entry(kernel: str) -> BenchmarkEntry:
    try:
        return _BENCHMARKS[kernel]
    except KeyError:
        raise RegistryError("benchmark", kernel, sorted(_BENCHMARKS)) from None


def get_benchmark(kernel: str, size_name: str) -> KernelBenchmark:
    """Build the registered benchmark for (kernel, size); unknown kernels
    and sizes raise the typed :class:`~repro.common.errors.RegistryError`
    listing what is available."""
    return benchmark_entry(kernel).build(size_name)


def benchmark_names() -> list[str]:
    return sorted(_BENCHMARKS)


def benchmark_entries() -> list[BenchmarkEntry]:
    return [_BENCHMARKS[k] for k in sorted(_BENCHMARKS)]


def benchmark_pairs() -> list[tuple[str, str]]:
    """Every registered (kernel, size) pair, sorted."""
    return [(e.kernel, size) for e in benchmark_entries() for size in e.sizes]


def _reset_for_tests() -> None:
    """Drop user registrations and replacements (test isolation helper)."""
    _BENCHMARKS.clear()
    _BENCHMARKS.update((e.kernel, e) for e in _BUILTINS)
