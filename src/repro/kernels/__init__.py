"""PolyBench 4.2 kernels implemented in the mini-TE language.

The paper tunes three kernels — ``3mm``, ``cholesky``, ``lu`` — at the PolyBench
LARGE and EXTRALARGE problem sizes. This package provides:

* NumPy reference implementations (:mod:`repro.kernels.reference`);
* TE schedule builders exposing the paper's tunable split factors
  (:mod:`repro.kernels.threemm`, :mod:`repro.kernels.lu`,
  :mod:`repro.kernels.cholesky`, plus the PolyBench plugin kernels' builders:
  gemm, syrk and trmm in :mod:`repro.kernels.extra`, jacobi-2d in
  :mod:`repro.kernels.stencil`);
* PolyBench problem-size presets (:mod:`repro.kernels.problem_sizes`);
* the tuning parameter spaces of Table 1 (:mod:`repro.kernels.spaces`);
* a registry tying each (kernel, size) to its space, builder, and Swing
  performance profile (:mod:`repro.kernels.registry`).
"""

from repro.kernels.problem_sizes import (
    PROBLEM_SIZES,
    ThreeMMSize,
    SolverSize,
    problem_size,
)
from repro.kernels.reference import (
    threemm_reference,
    lu_reference,
    cholesky_reference,
    gemm_reference,
    syrk_reference,
)
from repro.kernels.threemm import threemm_basic, threemm_tuned, THREEMM_PARAMS
from repro.kernels.lu import lu_trailing_update_tuned, BlockedLU
from repro.kernels.cholesky import cholesky_trailing_update_tuned, BlockedCholesky
from repro.kernels.extra import gemm_tuned, syrk_tuned, trmm_tuned
from repro.kernels.stencil import jacobi2d_tuned, jacobi2d_reference
from repro.kernels.spaces import (
    build_config_space,
    param_candidates,
    space_size,
    TABLE1_SPACE_SIZES,
)
from repro.kernels.registry import KernelBenchmark, get_benchmark, list_benchmarks

__all__ = [
    "PROBLEM_SIZES",
    "ThreeMMSize",
    "SolverSize",
    "problem_size",
    "threemm_reference",
    "lu_reference",
    "cholesky_reference",
    "gemm_reference",
    "syrk_reference",
    "threemm_basic",
    "threemm_tuned",
    "THREEMM_PARAMS",
    "lu_trailing_update_tuned",
    "BlockedLU",
    "cholesky_trailing_update_tuned",
    "BlockedCholesky",
    "gemm_tuned",
    "syrk_tuned",
    "trmm_tuned",
    "jacobi2d_tuned",
    "jacobi2d_reference",
    "build_config_space",
    "param_candidates",
    "space_size",
    "TABLE1_SPACE_SIZES",
    "KernelBenchmark",
    "get_benchmark",
    "list_benchmarks",
]
