"""Tests for the kernel benchmark registry."""

import pytest

from repro.common.errors import RegistryError, ReproError
from repro.kernels import get_benchmark, list_benchmarks
from repro.kernels.registry import PAPER_BEST_RUNTIMES


class TestRegistry:
    def test_all_paper_benchmarks_present(self):
        assert set(list_benchmarks()) == {
            ("3mm", "large"),
            ("3mm", "extralarge"),
            ("cholesky", "large"),
            ("cholesky", "extralarge"),
            ("lu", "large"),
            ("lu", "extralarge"),
        }

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ReproError):
            get_benchmark("stencil", "large")

    def test_unknown_kernel_raises_typed_registry_error(self):
        # Not a bare KeyError/ReproError: callers get the typed RegistryError
        # carrying what was asked for and what exists.
        with pytest.raises(RegistryError) as exc:
            get_benchmark("stencil", "large")
        assert exc.value.requested == "stencil"
        assert "3mm" in exc.value.available
        assert "stencil" in str(exc.value)

    def test_unknown_size_raises_typed_registry_error(self):
        with pytest.raises(RegistryError) as exc:
            get_benchmark("3mm", "gigantic")
        assert exc.value.requested == "gigantic"
        assert "large" in exc.value.available

    def test_unknown_size_for_delegated_plugin_kernel(self):
        with pytest.raises(RegistryError) as exc:
            get_benchmark("gemm", "gigantic")
        assert exc.value.requested == "gigantic"
        assert "mini" in exc.value.available

    def test_problem_size_unknown_raises_typed_registry_error(self):
        from repro.kernels import problem_size

        with pytest.raises(RegistryError):
            problem_size("nosuch", "mini")
        with pytest.raises(RegistryError):
            problem_size("gemm", "nosuch")

    def test_space_size_matches_profile_candidates(self):
        b = get_benchmark("3mm", "large")
        assert b.space_size() == 74_649_600
        assert b.profile.param_candidates == b.candidates

    def test_profiles_carry_paper_best(self):
        for (kernel, size), runtime in PAPER_BEST_RUNTIMES.items():
            assert get_benchmark(kernel, size).profile.paper_best == runtime

    def test_solver_flop_scales(self):
        lu = get_benchmark("lu", "large").profile.stages[0]
        ch = get_benchmark("cholesky", "large").profile.stages[0]
        assert lu.flops == pytest.approx(2 / 3 * 2000**3)
        assert ch.flops == pytest.approx(1 / 3 * 2000**3)

    def test_3mm_stage_dims(self):
        stages = get_benchmark("3mm", "extralarge").profile.stages
        dims = {s.name: (s.m, s.n, s.k) for s in stages}
        assert dims == {
            "E": (1600, 2000, 1800),
            "F": (2000, 2400, 2200),
            "G": (1600, 2400, 2000),
        }

    def test_schedule_builder_runs_at_small_size(self):
        import numpy as np

        from repro.runtime import build

        b = get_benchmark("3mm", "large")
        # The builder itself must work; execute only a mini-size clone.
        from repro.kernels import problem_size, threemm_tuned

        size = problem_size("3mm", "mini")
        params = {p: 2 for p in b.params}
        sched, args = threemm_tuned(size, params)
        mod = build(sched, args)
        bufs = [np.zeros(t.shape, dtype=t.dtype) for t in args]
        mod(*bufs)

    def test_runner_factory_for_solvers(self):
        assert get_benchmark("lu", "large").runner_factory is not None
        assert get_benchmark("3mm", "large").runner_factory is None
