"""NumPy reference implementations of the PolyBench kernels.

These are the ground truth the TE implementations are validated against, exactly
following the PolyBench 4.2 C semantics (e.g. ``lu`` is Doolittle LU *without
pivoting*, updating the matrix in place into a combined L\\U layout with a unit
diagonal on L).
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.common.errors import RegistryError, ReproError
from repro.kernels.problem_sizes import ALPHA, BETA, JACOBI_EXEC_TSTEPS, problem_size


def _check_square(a: np.ndarray, name: str) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ReproError(f"{name} expects a square matrix, got shape {a.shape}")


def threemm_reference(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray
) -> np.ndarray:
    """``G = (A·B)·(C·D)`` — PolyBench 3mm."""
    if a.shape[1] != b.shape[0] or c.shape[1] != d.shape[0] or b.shape[1] != c.shape[0]:
        raise ReproError(
            f"3mm shape mismatch: A{a.shape} B{b.shape} C{c.shape} D{d.shape}"
        )
    return (a @ b) @ (c @ d)


def lu_reference(a: np.ndarray) -> np.ndarray:
    """In-place-style LU without pivoting; returns the combined L\\U matrix.

    After the call, the strict lower triangle holds L (unit diagonal implied)
    and the upper triangle (incl. diagonal) holds U — PolyBench's layout.
    """
    _check_square(a, "lu")
    out = np.array(a, dtype=np.float64, copy=True)
    n = out.shape[0]
    for k in range(n):
        if out[k, k] == 0.0:
            raise ReproError(f"lu: zero pivot at step {k} (no pivoting)")
        out[k + 1 :, k] /= out[k, k]
        out[k + 1 :, k + 1 :] -= np.outer(out[k + 1 :, k], out[k, k + 1 :])
    return out


def lu_split(lu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a combined L\\U matrix into (L with unit diagonal, U)."""
    lower = np.tril(lu, -1) + np.eye(lu.shape[0], dtype=lu.dtype)
    upper = np.triu(lu)
    return lower, upper


def cholesky_reference(a: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor L with ``A = L·Lᵀ`` (PolyBench layout:
    the result's upper triangle is left as A's original values are in PolyBench;
    here we return the clean lower-triangular factor)."""
    _check_square(a, "cholesky")
    out = np.array(a, dtype=np.float64, copy=True)
    n = out.shape[0]
    for j in range(n):
        diag = out[j, j] - np.dot(out[j, :j], out[j, :j])
        if diag <= 0.0:
            raise ReproError(f"cholesky: matrix not positive definite at column {j}")
        out[j, j] = np.sqrt(diag)
        if j + 1 < n:
            out[j + 1 :, j] = (
                out[j + 1 :, j] - out[j + 1 :, :j] @ out[j, :j]
            ) / out[j, j]
    return np.tril(out)


def make_spd(n: int, seed: int = 0) -> np.ndarray:
    """A well-conditioned symmetric positive-definite matrix (for tests)."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    return m @ m.T / n + np.eye(n) * 2.0


def make_lu_friendly(n: int, seed: int = 0) -> np.ndarray:
    """A diagonally dominant matrix so unpivoted LU is stable (for tests)."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    return m + np.eye(n) * (np.abs(m).sum(axis=1).max() + 1.0)


# -- extension kernels (beyond the paper's three) ---------------------------


def gemm_reference(
    alpha: float, beta: float, c: np.ndarray, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """PolyBench gemm: ``C = alpha·A·B + beta·C``."""
    return alpha * (a @ b) + beta * c


def trmm_reference(alpha: float, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """PolyBench trmm: ``B = alpha·(B + strict_lowerᵀ(A)·B)``."""
    strict_lower = np.tril(a, -1)
    return alpha * (b + strict_lower.T @ b)


def syrk_reference(
    alpha: float, beta: float, c: np.ndarray, a: np.ndarray
) -> np.ndarray:
    """PolyBench syrk (full update variant): ``C = alpha·A·Aᵀ + beta·C``."""
    return alpha * (a @ a.T) + beta * c


def reference_check(
    kernel: str,
    size_name: str,
    output: np.ndarray,
    inputs: Mapping[str, np.ndarray],
    rtol: float = 1e-10,
    atol: float = 1e-10,
) -> None:
    """Assert a plugin kernel's output matches its NumPy PolyBench reference.

    Covers the four plugin kernels (gemm, syrk, trmm, jacobi2d) as their
    registered schedule builders compute them; lu, 3mm and cholesky are
    checked by their own tests. ``inputs`` holds the input buffers keyed by
    placeholder name (as returned by the benchmark's schedule builder args).
    Raises ``AssertionError`` on mismatch.
    """
    if kernel == "gemm":
        expect = gemm_reference(ALPHA, BETA, inputs["C"], inputs["A"], inputs["B"])
    elif kernel == "syrk":
        expect = syrk_reference(ALPHA, BETA, inputs["C"], inputs["A"])
    elif kernel == "trmm":
        expect = trmm_reference(ALPHA, inputs["A"], inputs["B"])
    elif kernel == "jacobi2d":
        from repro.kernels.stencil import jacobi2d_reference

        tsteps = problem_size("jacobi2d", size_name).tsteps
        expect = jacobi2d_reference(inputs["A"], min(tsteps, JACOBI_EXEC_TSTEPS))
    else:
        raise RegistryError("plugin kernel", kernel, ["gemm", "syrk", "trmm", "jacobi2d"])
    np.testing.assert_allclose(output, expect, rtol=rtol, atol=atol)
