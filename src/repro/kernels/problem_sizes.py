"""PolyBench 4.2 problem-size presets.

The paper's case study uses LARGE and EXTRALARGE; MINI/SMALL/MEDIUM exist for
tests and real-execution examples. Values are the PolyBench 4.2 defaults (the
paper quotes LARGE/EXTRALARGE explicitly for all three kernels).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import RegistryError


@dataclass(frozen=True)
class ThreeMMSize:
    """3mm dimensions: A(N,L) B(L,M) C(M,O) D(O,P); G = (A·B)·(C·D) is (N,P)."""

    n: int
    l: int  # noqa: E741 - PolyBench's own name
    m: int
    o: int
    p: int


@dataclass(frozen=True)
class SolverSize:
    """LU / Cholesky operate on an N×N matrix."""

    n: int


@dataclass(frozen=True)
class GemmSize:
    """gemm computes C(NI,NJ) += alpha·A(NI,NK)·B(NK,NJ)."""

    ni: int
    nj: int
    nk: int


@dataclass(frozen=True)
class RankUpdateSize:
    """syrk / trmm shapes: an (N,N) update built from an (N,M)-ish operand.

    For syrk ``n`` is the output order and ``m`` the reduction depth; for trmm
    ``n`` is the triangular order M and ``m`` the column count N of B (we keep
    PolyBench's two numbers under one roof since both kernels are a square
    update driven by a second extent).
    """

    n: int
    m: int


@dataclass(frozen=True)
class StencilSize:
    """jacobi-2d sweeps an N×N grid TSTEPS times."""

    n: int
    tsteps: int


PROBLEM_SIZES: dict[str, dict[str, object]] = {
    "3mm": {
        "mini": ThreeMMSize(16, 18, 20, 22, 24),
        "small": ThreeMMSize(40, 50, 60, 70, 80),
        "medium": ThreeMMSize(180, 190, 200, 210, 220),
        "large": ThreeMMSize(800, 900, 1000, 1100, 1200),
        "extralarge": ThreeMMSize(1600, 1800, 2000, 2200, 2400),
    },
    "lu": {
        "mini": SolverSize(40),
        "small": SolverSize(120),
        "medium": SolverSize(400),
        "large": SolverSize(2000),
        "extralarge": SolverSize(4000),
    },
    "cholesky": {
        "mini": SolverSize(40),
        "small": SolverSize(120),
        "medium": SolverSize(400),
        "large": SolverSize(2000),
        "extralarge": SolverSize(4000),
    },
    # PolyBench 4.2 defaults for the plugin kernels.
    "gemm": {
        "mini": GemmSize(20, 25, 30),
        "small": GemmSize(60, 70, 80),
        "medium": GemmSize(200, 220, 240),
        "large": GemmSize(1000, 1100, 1200),
        "extralarge": GemmSize(2000, 2300, 2600),
    },
    "syrk": {
        "mini": RankUpdateSize(20, 30),
        "small": RankUpdateSize(60, 80),
        "medium": RankUpdateSize(200, 240),
        "large": RankUpdateSize(1000, 1200),
        "extralarge": RankUpdateSize(2000, 2600),
    },
    "trmm": {
        "mini": RankUpdateSize(20, 30),
        "small": RankUpdateSize(60, 80),
        "medium": RankUpdateSize(200, 240),
        "large": RankUpdateSize(1000, 1200),
        "extralarge": RankUpdateSize(2000, 2600),
    },
    "jacobi2d": {
        "mini": StencilSize(30, 20),
        "small": StencilSize(90, 40),
        "medium": StencilSize(250, 100),
        "large": StencilSize(1300, 500),
        "extralarge": StencilSize(2800, 1000),
    },
}

#: PolyBench default scalar coefficients (shared by molds and references).
ALPHA, BETA = 1.5, 1.2

#: Real-execution sweep cap for jacobi-2d: the schedule builder emits one TE
#: stage per time step, and mini already means 20 sweeps of a 30x30 grid —
#: plenty to compile and validate without making LocalEvaluator runs take
#: minutes. The Swing profile still prices every sweep.
JACOBI_EXEC_TSTEPS = 4


def problem_size(kernel: str, size: str):
    """Look up a preset; raises a typed :class:`RegistryError` for typos."""
    try:
        by_size = PROBLEM_SIZES[kernel]
    except KeyError:
        raise RegistryError("kernel", kernel, sorted(PROBLEM_SIZES)) from None
    try:
        return by_size[size]
    except KeyError:
        raise RegistryError(
            f"problem size for kernel {kernel!r}", size, sorted(by_size)
        ) from None
