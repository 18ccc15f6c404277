"""Tests for the extension kernels (gemm, syrk, trmm)."""

import numpy as np
import pytest

from repro.common.errors import SpaceError
from repro.kernels import gemm_tuned, syrk_tuned
from repro.kernels.reference import gemm_reference, syrk_reference
from repro.runtime import build


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.mark.parametrize("tiles", [(1, 1), (2, 5), (4, 4), (12, 10)])
class TestGemm:
    def test_matches_reference(self, rng, tiles):
        s, args = gemm_tuned(12, 10, 8, {"P0": tiles[0], "P1": tiles[1]})
        mod = build(s, args)
        a, b, c = rng.random((12, 8)), rng.random((8, 10)), rng.random((12, 10))
        out = np.zeros((12, 10))
        mod(a, b, c, out)
        np.testing.assert_allclose(
            out, gemm_reference(1.5, 1.2, c, a, b), rtol=1e-12
        )


class TestVectorKernels:
    def test_syrk(self, rng):
        s, args = syrk_tuned(8, 6, {"P0": 4, "P1": 8})
        mod = build(s, args)
        a, c = rng.random((8, 6)), rng.random((8, 8))
        out = np.zeros((8, 8))
        mod(a, c, out)
        np.testing.assert_allclose(
            out, syrk_reference(1.5, 1.2, c, a), rtol=1e-12
        )

    def test_trmm_masked_reduction(self, rng):
        from repro.kernels import trmm_tuned
        from repro.kernels.reference import trmm_reference

        s, args = trmm_tuned(8, 6, {"P0": 2, "P1": 3})
        mod = build(s, args)
        a, b = rng.random((8, 8)), rng.random((8, 6))
        out = np.zeros((8, 6))
        mod(a, b, out)
        np.testing.assert_allclose(out, trmm_reference(1.5, a, b), rtol=1e-12)

    def test_trmm_interp_and_codegen_agree(self, rng):
        from repro.kernels import trmm_tuned

        s, args = trmm_tuned(6, 5, {"P0": 3, "P1": 5})
        a, b = rng.random((6, 6)), rng.random((6, 5))
        out_cg = np.zeros((6, 5))
        build(s, args, target="llvm")(a, b, out_cg)
        s2, args2 = trmm_tuned(6, 5, {"P0": 3, "P1": 5})
        out_in = np.zeros((6, 5))
        build(s2, args2, target="interp")(a, b, out_in)
        np.testing.assert_allclose(out_cg, out_in, rtol=1e-12)

    def test_oversized_tiles_clamped(self, rng):
        s, args = gemm_tuned(5, 4, 3, {"P0": 100, "P1": 100})
        mod = build(s, args)
        a, b, c = rng.random((5, 3)), rng.random((3, 4)), rng.random((5, 4))
        out = np.zeros((5, 4))
        mod(a, b, c, out)
        np.testing.assert_allclose(
            out, gemm_reference(1.5, 1.2, c, a, b), rtol=1e-12
        )

    def test_missing_params_rejected(self):
        with pytest.raises(SpaceError):
            gemm_tuned(4, 4, 4, {"P0": 2})
