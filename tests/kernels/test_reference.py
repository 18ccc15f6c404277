"""Tests for the NumPy reference kernels (the ground truth itself)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ReproError
from repro.kernels.reference import (
    cholesky_reference,
    gemm_reference,
    lu_reference,
    lu_split,
    make_lu_friendly,
    make_spd,
    mismatch,
    syrk_reference,
    threemm_reference,
)


class TestLUReference:
    def test_factorization_identity(self):
        a = make_lu_friendly(12, seed=0)
        lower, upper = lu_split(lu_reference(a))
        np.testing.assert_allclose(lower @ upper, a, rtol=1e-10)

    def test_unit_diagonal_l(self):
        a = make_lu_friendly(8, seed=1)
        lower, _ = lu_split(lu_reference(a))
        np.testing.assert_allclose(np.diag(lower), 1.0)

    def test_zero_pivot_detected(self):
        with pytest.raises(ReproError):
            lu_reference(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ReproError):
            lu_reference(np.zeros((3, 4)))

    def test_identity_factors_to_identity(self):
        np.testing.assert_allclose(lu_reference(np.eye(5)), np.eye(5))

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(2, 20), seed=st.integers(0, 500))
    def test_property_reconstruction(self, n, seed):
        a = make_lu_friendly(n, seed=seed)
        lower, upper = lu_split(lu_reference(a))
        np.testing.assert_allclose(lower @ upper, a, rtol=1e-8, atol=1e-10)


class TestCholeskyReference:
    def test_factorization_identity(self):
        a = make_spd(10, seed=0)
        low = cholesky_reference(a)
        np.testing.assert_allclose(low @ low.T, a, rtol=1e-10)

    def test_matches_numpy(self):
        a = make_spd(9, seed=2)
        np.testing.assert_allclose(
            cholesky_reference(a), np.linalg.cholesky(a), rtol=1e-10
        )

    def test_lower_triangular(self):
        low = cholesky_reference(make_spd(7, seed=1))
        assert np.allclose(np.triu(low, 1), 0.0)

    def test_not_spd_rejected(self):
        with pytest.raises(ReproError):
            cholesky_reference(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(2, 20), seed=st.integers(0, 500))
    def test_property_reconstruction(self, n, seed):
        a = make_spd(n, seed=seed)
        low = cholesky_reference(a)
        np.testing.assert_allclose(low @ low.T, a, rtol=1e-8, atol=1e-10)


class TestOtherReferences:
    def test_3mm(self):
        rng = np.random.default_rng(0)
        a, b = rng.random((4, 5)), rng.random((5, 6))
        c, d = rng.random((6, 7)), rng.random((7, 8))
        np.testing.assert_allclose(threemm_reference(a, b, c, d), (a @ b) @ (c @ d))

    def test_3mm_shape_mismatch(self):
        with pytest.raises(ReproError):
            threemm_reference(
                np.zeros((2, 3)), np.zeros((4, 5)), np.zeros((5, 6)), np.zeros((6, 7))
            )

    def test_gemm(self):
        rng = np.random.default_rng(1)
        a, b, c = rng.random((3, 4)), rng.random((4, 5)), rng.random((3, 5))
        np.testing.assert_allclose(
            gemm_reference(2.0, 0.5, c, a, b), 2 * a @ b + 0.5 * c
        )

    def test_syrk(self):
        rng = np.random.default_rng(3)
        a = rng.random((5, 4))
        c = rng.random((5, 5))
        np.testing.assert_allclose(
            syrk_reference(2.0, 0.1, c, a), 2 * a @ a.T + 0.1 * c
        )

    def test_generators_are_usable(self):
        assert np.all(np.linalg.eigvalsh(make_spd(6)) > 0)
        lu_reference(make_lu_friendly(6))  # must not raise


class TestMismatch:
    def test_match_within_tolerance(self):
        want = np.ones((3, 3))
        assert mismatch("k", want + 1e-12, want) is None

    def test_wrong_value_names_the_kernel(self):
        want = np.ones((3, 3))
        got = want.copy()
        got[2, 1] += 1e-6
        assert mismatch("k", got, want) == "k: max |error| 1e-06 exceeds rtol=atol=1e-10"

    def test_shape_differs_even_where_numpy_would_broadcast(self):
        # allclose alone would broadcast a (3,) output against (3, 3) and pass.
        assert mismatch("k", np.ones(3), np.ones((3, 3))) == (
            "k: shape (3,) != reference (3, 3)"
        )
