"""PolyBench plugin kernels: numerical correctness and model landscapes.

Each plugin benchmark's TE schedule executes at mini size and must match its
numpy PolyBench reference (:func:`repro.kernels.reference.reference_check`
is the plugin kernels' correctness oracle); the Swing profile must price
tile choices distinctly so the tuners have a real landscape to search.
"""

import numpy as np
import pytest

from repro.bench import get_benchmark
from repro.common.errors import RegistryError
from repro.kernels.problem_sizes import JACOBI_EXEC_TSTEPS, problem_size
from repro.kernels.reference import reference_check
from repro.kernels.registry import PLUGIN_KERNELS
from repro.runtime import build
from repro.service.session import make_evaluator

SIZE = "mini"


def _mid_config(bench):
    """A mid-range tile from each parameter's candidate list."""
    return {p: bench.candidates[p][len(bench.candidates[p]) // 2]
            for p in bench.params}


def _execute(bench, config):
    """Build and run the benchmark's schedule; returns (output, inputs)."""
    sched, args = bench.schedule_builder(config)
    rng = np.random.default_rng(7)
    bufs = [rng.standard_normal(t.shape).astype(t.dtype) for t in args[:-1]]
    bufs.append(np.zeros(args[-1].shape, dtype=args[-1].dtype))
    mod = build(sched, args)
    mod(*bufs)
    inputs = {t.name: b for t, b in zip(args[:-1], bufs[:-1])}
    return bufs[-1], inputs


class TestReferenceChecks:
    @pytest.mark.parametrize("kernel", PLUGIN_KERNELS)
    def test_schedule_matches_numpy_reference(self, kernel):
        bench = get_benchmark(kernel, SIZE)
        output, inputs = _execute(bench, _mid_config(bench))
        reference_check(kernel, SIZE, output, inputs)

    @pytest.mark.parametrize("kernel", PLUGIN_KERNELS)
    def test_extreme_tiles_match_too(self, kernel):
        # Largest candidate tiles (often bigger than the loop extents — the
        # clamped-factor path) must not change the computed answer.
        bench = get_benchmark(kernel, SIZE)
        config = {p: bench.candidates[p][-1] for p in bench.params}
        output, inputs = _execute(bench, config)
        reference_check(kernel, SIZE, output, inputs)

    def test_reference_check_catches_corruption(self):
        bench = get_benchmark("gemm", SIZE)
        output, inputs = _execute(bench, _mid_config(bench))
        output[0, 0] += 1.0
        with pytest.raises(AssertionError):
            reference_check("gemm", SIZE, output, inputs)

    def test_reference_check_unknown_kernel(self):
        with pytest.raises(RegistryError):
            reference_check("nosuch", SIZE, np.zeros(1), {})


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
