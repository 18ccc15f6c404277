"""PolyBench kernels: numerical correctness and the plugins' model landscapes.

Every registered benchmark's TE schedule executes at mini size and its
output must pass the benchmark's own ``check`` against the NumPy PolyBench
reference; the plugin kernels' Swing profiles must price tile choices
distinctly so the tuners have a real landscape to search.
"""

import numpy as np
import pytest

from repro.bench import get_benchmark
from repro.kernels.problem_sizes import JACOBI_EXEC_TSTEPS, problem_size
from repro.kernels.registry import PLUGIN_KERNELS
from repro.runtime import build
from repro.service.session import make_evaluator

SIZE = "mini"
KERNELS = ("3mm", "lu", "cholesky") + PLUGIN_KERNELS


def _mid_config(bench):
    """A mid-range tile from each parameter's candidate list."""
    return {p: bench.candidates[p][len(bench.candidates[p]) // 2]
            for p in bench.params}


def _execute(bench, config):
    """Build and run the benchmark's schedule; returns its buffers in the
    builder's argument order, the output last."""
    sched, args = bench.schedule_builder(config)
    rng = np.random.default_rng(7)
    bufs = [rng.standard_normal(t.shape).astype(t.dtype) for t in args[:-1]]
    bufs.append(np.zeros(args[-1].shape, dtype=args[-1].dtype))
    mod = build(sched, args)
    mod(*bufs)
    return bufs


class TestReferenceChecks:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_schedule_matches_numpy_reference(self, kernel):
        bench = get_benchmark(kernel, SIZE)
        assert bench.check(_execute(bench, _mid_config(bench))) is None

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_extreme_tiles_match_too(self, kernel):
        # Largest candidate tiles (often bigger than the loop extents — the
        # clamped-factor path) must not change the computed answer.
        bench = get_benchmark(kernel, SIZE)
        config = {p: bench.candidates[p][-1] for p in bench.params}
        assert bench.check(_execute(bench, config)) is None

    def test_reference_check_catches_corruption(self):
        for kernel in KERNELS:
            bench = get_benchmark(kernel, SIZE)
            buffers = _execute(bench, _mid_config(bench))
            buffers[-1][0, 0] += 1.0
            message = bench.check(buffers)
            assert message is not None and message.startswith(f"{kernel}: ")
            assert "\n" not in message


class TestProfiles:
    @pytest.mark.parametrize("kernel", PLUGIN_KERNELS)
    def test_profile_aligns_with_benchmark(self, kernel):
        bench = get_benchmark(kernel, SIZE)
        assert bench.profile.kernel == kernel
        assert bench.profile.param_candidates == bench.candidates
        assert bench.profile.paper_best is None  # not reported by the paper
        stage = bench.profile.stages[0]
        assert stage.flops > 0

    def test_jacobi2d_pseudo_stage_folds_all_sweeps(self):
        size = problem_size("jacobi2d", SIZE)
        stage = get_benchmark("jacobi2d", SIZE).profile.stages[0]
        assert stage.m == size.n * size.tsteps
        assert stage.n == size.n
        assert stage.k == 5  # the 5-point neighborhood
        assert stage.launches == size.tsteps

    def test_jacobi2d_execution_caps_sweeps(self):
        # The model prices all tsteps sweeps; real execution caps them so
        # LocalEvaluator runs stay fast. The reference check uses the same cap.
        size = problem_size("jacobi2d", SIZE)
        sched, args = get_benchmark("jacobi2d", SIZE).schedule_builder(
            {"P0": 4, "P1": 4}
        )
        assert size.tsteps > JACOBI_EXEC_TSTEPS
        assert len(args) == 2  # [A, final sweep] — stages chained in between

    @pytest.mark.parametrize("kernel", PLUGIN_KERNELS)
    def test_landscape_is_not_flat(self, kernel):
        # The simulated A100 must price different tiles differently, or the
        # whole tuning exercise on these kernels is vacuous.
        bench = get_benchmark(kernel, SIZE)
        evaluator = make_evaluator(bench, for_autotvm=False, model=None, seed=0)
        costs = set()
        for p0 in bench.candidates["P0"]:
            for p1 in bench.candidates["P1"][:2]:
                result = evaluator.evaluate({"P0": p0, "P1": p1})
                costs.add(min(result.costs))
        assert len(costs) > 1
