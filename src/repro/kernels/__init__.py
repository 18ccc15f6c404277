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
* the one benchmark registry (:mod:`repro.kernels.registry`;
  :mod:`repro.bench` re-exports its plugin API). Each of the seven kernels'
  factories builds, for one size, a benchmark that carries its own Table 1
  space (the divisors of each split axis's extent), schedule builder, Swing
  performance profile and output check; ``TABLE1_SPACE_SIZES`` holds the
  paper's sizes to compare against. No module here imports
  :mod:`repro.bench`.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(
    __name__,
    {
        "problem_sizes": ("PROBLEM_SIZES", "ThreeMMSize", "SolverSize", "problem_size"),
        "reference": (
            "threemm_reference",
            "lu_reference",
            "cholesky_reference",
            "gemm_reference",
            "syrk_reference",
            "jacobi2d_reference",
        ),
        "threemm": ("threemm_basic", "threemm_tuned", "THREEMM_PARAMS"),
        "lu": ("lu_trailing_update_tuned", "BlockedLU"),
        "cholesky": ("cholesky_trailing_update_tuned", "BlockedCholesky"),
        "extra": ("gemm_tuned", "syrk_tuned", "trmm_tuned"),
        "stencil": ("jacobi2d_tuned",),
        "registry": ("KernelBenchmark", "get_benchmark", "TABLE1_SPACE_SIZES"),
    },
)
