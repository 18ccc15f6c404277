"""Tests for the Jacobi-2D stencil kernel."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import SpaceError
from repro.kernels.reference import jacobi2d_reference
from repro.kernels.stencil import jacobi2d_tuned
from repro.runtime import build


@pytest.fixture
def grid():
    return np.random.default_rng(0).random((12, 12))


class TestJacobi2DReference:
    def test_boundary_unchanged(self, grid):
        out = jacobi2d_reference(grid, 3)
        np.testing.assert_array_equal(out[0, :], grid[0, :])
        np.testing.assert_array_equal(out[-1, :], grid[-1, :])
        np.testing.assert_array_equal(out[:, 0], grid[:, 0])
        np.testing.assert_array_equal(out[:, -1], grid[:, -1])

    def test_uniform_grid_fixed_point(self):
        a = np.full((8, 8), 3.0)
        np.testing.assert_allclose(jacobi2d_reference(a, 5), a)

    def test_smoothing_reduces_variance(self, grid):
        out = jacobi2d_reference(grid, 10)
        assert out[1:-1, 1:-1].var() < grid[1:-1, 1:-1].var()


class TestJacobi2DTE:
    def test_matches_reference_one_step(self, grid):
        s, args = jacobi2d_tuned(12, 1, {"P0": 4, "P1": 6})
        mod = build(s, args)
        out = np.zeros((12, 12))
        mod(grid, out)
        np.testing.assert_allclose(out, jacobi2d_reference(grid, 1), rtol=1e-12)

    def test_matches_reference_multi_step(self, grid):
        s, args = jacobi2d_tuned(12, 4, {"P0": 3, "P1": 4})
        mod = build(s, args)
        out = np.zeros((12, 12))
        mod(grid, out)
        np.testing.assert_allclose(out, jacobi2d_reference(grid, 4), rtol=1e-12)

    def test_stage_count_matches_tsteps(self):
        s, _ = jacobi2d_tuned(8, 3, {"P0": 2, "P1": 2})
        assert len(s.stages) == 3

    def test_validation(self):
        with pytest.raises(SpaceError):
            jacobi2d_tuned(8, 2, {"P0": 2})
        with pytest.raises(SpaceError):
            jacobi2d_tuned(2, 1, {"P0": 1, "P1": 1})
        with pytest.raises(SpaceError):
            jacobi2d_tuned(8, 0, {"P0": 1, "P1": 1})

    @settings(max_examples=8, deadline=None)
    @given(
        ty=st.sampled_from([1, 2, 4, 12]),
        tx=st.sampled_from([1, 3, 6, 12]),
        tsteps=st.integers(1, 3),
        seed=st.integers(0, 50),
    )
    def test_property_tiles_do_not_change_result(self, ty, tx, tsteps, seed):
        a = np.random.default_rng(seed).random((12, 12))
        s, args = jacobi2d_tuned(12, tsteps, {"P0": ty, "P1": tx})
        mod = build(s, args)
        out = np.zeros((12, 12))
        mod(a, out)
        np.testing.assert_allclose(
            out, jacobi2d_reference(a, tsteps), rtol=1e-12
        )

    def test_tunable_with_bo(self):
        from repro.configspace import ConfigurationSpace, OrdinalHyperparameter
        from repro.core import AutotuneConfig, BayesianAutotuner

        space = ConfigurationSpace(seed=0)
        space.add_hyperparameters(
            [
                OrdinalHyperparameter("P0", [1, 2, 4, 8, 16]),
                OrdinalHyperparameter("P1", [1, 2, 4, 8, 16]),
            ]
        )
        tuner = BayesianAutotuner.for_schedule_builder(
            space,
            lambda p: jacobi2d_tuned(16, 2, p),
            config=AutotuneConfig(max_evals=6, n_initial_points=3, seed=0),
        )
        result = tuner.run()
        assert result.best_runtime > 0
