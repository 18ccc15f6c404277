"""PolyBench stencil kernels: Jacobi-2D.

A different kernel class from the matmul family: no reductions, pure
neighbor-gather elementwise computes. Each time step is a TE stage reading the
previous step's interior; the tunable parameters tile the row/column loops of
every sweep. Stencils are bandwidth-bound, so the interesting schedule axis is
the tile shape's effect on locality — a useful contrast workload for the
tuners.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import repro.te as te
from repro.common.errors import SpaceError
from repro.kernels.schedules import clamp_factor
from repro.te.schedule import Schedule
from repro.te.tensor import Tensor


def jacobi2d_tuned(
    n: int,
    tsteps: int,
    params: Mapping[str, int],
    dtype: str = "float64",
    vectorize_inner: bool = True,
) -> tuple[Schedule, Sequence[Tensor]]:
    """TE Jacobi-2D: one stage per sweep; P0/P1 tile every sweep's (y, x).

    Returns ``(schedule, [A, OUT])``. Boundary cells copy through unchanged
    (PolyBench semantics) via ``if_then_else`` interior masks with clamped
    neighbor reads.
    """
    for p in ("P0", "P1"):
        if p not in params:
            raise SpaceError(f"jacobi2d params missing {p!r}")
    if n < 3:
        raise SpaceError(f"jacobi2d needs n >= 3, got {n}")
    if tsteps < 1:
        raise SpaceError(f"jacobi2d needs tsteps >= 1, got {tsteps}")

    A = te.placeholder((n, n), name="A", dtype=dtype)
    cur: Tensor = A
    stages: list[Tensor] = []
    for t in range(tsteps):
        prev = cur

        def _sweep(i, j, _prev=prev):
            # Both Select branches evaluate eagerly: clamp neighbor indices so
            # the (unused) boundary-branch reads stay in range.
            im = te.Max(i - 1, te.const(0, "int32"))
            ip = te.Min(i + 1, te.const(n - 1, "int32"))
            jm = te.Max(j - 1, te.const(0, "int32"))
            jp = te.Min(j + 1, te.const(n - 1, "int32"))
            interior = te.And(
                te.And(i > 0, i < n - 1), te.And(j > 0, j < n - 1)
            )
            avg = 0.2 * (
                _prev[i, j] + _prev[i, jm] + _prev[i, jp] + _prev[im, j] + _prev[ip, j]
            )
            return te.Select(interior, avg, _prev[i, j])

        cur = te.compute((n, n), _sweep, name=f"sweep{t}")
        stages.append(cur)

    s = te.create_schedule(cur.op)
    ty = clamp_factor(int(params["P0"]), n)
    tx = clamp_factor(int(params["P1"]), n)
    for t_tensor in stages:
        stage = s[t_tensor]
        y, x = stage.op.axis
        yo, yi = stage.split(y, factor=ty)
        xo, xi = stage.split(x, factor=tx)
        stage.reorder(yo, xo, yi, xi)
        if vectorize_inner:
            stage.vectorize(xi)
    return s, [A, cur]
