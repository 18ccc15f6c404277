"""Extension kernels beyond the paper's three (PolyBench linear algebra).

The TE builders behind the registered PolyBench plugin kernels gemm, syrk and
trmm (:mod:`repro.kernels.registry`). Each returns ``(schedule, args)`` with
the same two-parameter tiling mold as the solvers (``P0`` tiles rows, ``P1``
tiles columns of the dominant stage), so any tuner in this package drives
them unchanged.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import repro.te as te
from repro.common.errors import SpaceError
from repro.kernels.schedules import apply_split_reorder
from repro.te.schedule import Schedule
from repro.te.tensor import Tensor


def _need(params: Mapping[str, int], *names: str) -> None:
    missing = [n for n in names if n not in params]
    if missing:
        raise SpaceError(f"kernel params missing {missing}; expected {list(names)}")


def gemm_tuned(
    ni: int,
    nj: int,
    nk: int,
    params: Mapping[str, int],
    alpha: float = 1.5,
    beta: float = 1.2,
    dtype: str = "float64",
    vectorize_inner: bool = True,
) -> tuple[Schedule, Sequence[Tensor]]:
    """PolyBench gemm: ``C_out = alpha·A·B + beta·C`` with P0/P1 tiling."""
    _need(params, "P0", "P1")
    A = te.placeholder((ni, nk), name="A", dtype=dtype)
    B = te.placeholder((nk, nj), name="B", dtype=dtype)
    C = te.placeholder((ni, nj), name="C", dtype=dtype)
    k = te.reduce_axis((0, nk), name="k")
    AB = te.compute((ni, nj), lambda i, j: te.sum(A[i, k] * B[k, j], axis=k), name="AB")
    OUT = te.compute(
        (ni, nj), lambda i, j: AB[i, j] * alpha + C[i, j] * beta, name="C_out"
    )
    s = te.create_schedule(OUT.op)
    apply_split_reorder(s[AB], params["P0"], params["P1"], vectorize_inner)
    if vectorize_inner:
        s[OUT].vectorize(s[OUT].op.axis[1])
    return s, [A, B, C, OUT]


def trmm_tuned(
    m: int,
    n: int,
    params: Mapping[str, int],
    alpha: float = 1.5,
    dtype: str = "float64",
    vectorize_inner: bool = True,
) -> tuple[Schedule, Sequence[Tensor]]:
    """PolyBench trmm: ``B_out = alpha·Aᵀ·B`` with A unit lower triangular.

    PolyBench computes ``B[i,j] += Σ_{k>i} A[k,i]·B[k,j]`` then scales by
    alpha. The triangular constraint is expressed with a masked reduction
    (``if_then_else(k > i, ..., 0)``) — a single te.compute, which is what
    makes trmm a good stress test for Select inside reductions.
    """
    _need(params, "P0", "P1")
    A = te.placeholder((m, m), name="A", dtype=dtype)
    B = te.placeholder((m, n), name="B", dtype=dtype)
    k = te.reduce_axis((0, m), name="k")
    ACC = te.compute(
        (m, n),
        lambda i, j: te.sum(
            te.if_then_else(k > i, A[k, i] * B[k, j], te.const(0.0, dtype)),
            axis=k,
        ),
        name="ACC",
    )
    OUT = te.compute(
        (m, n), lambda i, j: (B[i, j] + ACC[i, j]) * alpha, name="B_out"
    )
    s = te.create_schedule(OUT.op)
    apply_split_reorder(s[ACC], params["P0"], params["P1"], vectorize_inner)
    if vectorize_inner:
        s[OUT].vectorize(s[OUT].op.axis[1])
    return s, [A, B, OUT]


def syrk_tuned(
    n: int,
    m: int,
    params: Mapping[str, int],
    alpha: float = 1.5,
    beta: float = 1.2,
    dtype: str = "float64",
    vectorize_inner: bool = True,
) -> tuple[Schedule, Sequence[Tensor]]:
    """PolyBench syrk (full update): ``C_out = alpha·A·Aᵀ + beta·C``."""
    _need(params, "P0", "P1")
    A = te.placeholder((n, m), name="A", dtype=dtype)
    C = te.placeholder((n, n), name="C", dtype=dtype)
    k = te.reduce_axis((0, m), name="k")
    AAT = te.compute((n, n), lambda i, j: te.sum(A[i, k] * A[j, k], axis=k), name="AAT")
    OUT = te.compute(
        (n, n), lambda i, j: AAT[i, j] * alpha + C[i, j] * beta, name="C_out"
    )
    s = te.create_schedule(OUT.op)
    apply_split_reorder(s[AAT], params["P0"], params["P1"], vectorize_inner)
    if vectorize_inner:
        s[OUT].vectorize(s[OUT].op.axis[1])
    return s, [A, C, OUT]
