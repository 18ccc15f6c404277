"""End-to-end integration tests across the whole stack."""

import numpy as np
import pytest

from repro.configspace import ConfigurationSpace, OrdinalHyperparameter
from repro.core import AutotuneConfig, BayesianAutotuner
from repro.kernels import BlockedLU, get_benchmark
from repro.kernels.extra import gemm_tuned
from repro.kernels.reference import lu_reference, make_lu_friendly
from repro.runtime import build
from repro.runtime.measure import LocalEvaluator
from repro.ytopt import AMBS, Optimizer, Plopper, TuningProblem


class TestLocalTuningPipeline:
    """Paper Fig. 3 Steps 1-5, with real compilation and execution."""

    def test_bo_tunes_real_gemm_and_result_is_runnable(self):
        space = ConfigurationSpace(seed=0)
        space.add_hyperparameters(
            [
                OrdinalHyperparameter("P0", [1, 2, 4, 8, 16, 32]),
                OrdinalHyperparameter("P1", [1, 2, 4, 8, 16, 32]),
            ]
        )
        tuner = BayesianAutotuner.for_schedule_builder(
            space,
            lambda p: gemm_tuned(32, 32, 32, p),
            config=AutotuneConfig(max_evals=10, n_initial_points=4, seed=0),
        )
        result = tuner.run()

        # The winning configuration must build and compute correctly.
        sched, args = gemm_tuned(32, 32, 32, result.best_config)
        mod = build(sched, args)
        rng = np.random.default_rng(0)
        a, b, c = rng.random((32, 32)), rng.random((32, 32)), rng.random((32, 32))
        out = np.zeros((32, 32))
        mod(a, b, c, out)
        np.testing.assert_allclose(out, 1.5 * a @ b + 1.2 * c, rtol=1e-10)

    def test_found_config_beats_worst_corner(self):
        # Real execution: the tuner's pick must outperform the pathological
        # all-ones tiling by a wide margin on this machine.
        space = ConfigurationSpace(seed=1)
        space.add_hyperparameters(
            [
                OrdinalHyperparameter("P0", [1, 2, 4, 8, 16, 32]),
                OrdinalHyperparameter("P1", [1, 2, 4, 8, 16, 32]),
            ]
        )
        evaluator = LocalEvaluator(lambda p: gemm_tuned(32, 32, 32, p), seed=0)
        problem = TuningProblem(space, evaluator)
        result = AMBS(problem, Optimizer(space, seed=1), max_evals=10).run()
        worst = evaluator.evaluate({"P0": 1, "P1": 1})
        assert result.best_runtime < worst.mean_cost

    def test_codemold_to_execution(self):
        mold = """
def build_schedule():
    A = te.placeholder((16, 16), name="A")
    B = te.compute((16, 16), lambda i, j: A[i, j] * 3.0, name="B")
    s = te.create_schedule(B.op)
    yo, yi = s[B].split(s[B].op.axis[0], #P0)
    return s, [A, B]
"""
        plopper = Plopper(mold)
        evaluator = LocalEvaluator(plopper.schedule_builder())
        res = evaluator.evaluate({"P0": 4})
        assert res.ok


class TestSimulatedPaperProtocol:
    def test_lu_large_smoke_matches_paper_shape(self):
        from repro.experiments import run_experiment

        result = run_experiment(
            "lu",
            "large",
            tuners=("ytopt", "AutoTVM-GridSearch"),
            max_evals=20,
            seed=2,
        )
        yt = result.runs["ytopt"]
        gs = result.runs["AutoTVM-GridSearch"]
        assert yt.best_runtime < gs.best_runtime
        assert yt.total_time < gs.total_time

    def test_best_runtimes_land_near_calibration_target(self):
        # With a decent budget ytopt should get within 2x of the calibrated
        # optimum (paper best).
        from repro.experiments import run_tuner

        bench = get_benchmark("cholesky", "large")
        run = run_tuner(bench, "ytopt", max_evals=40, seed=0)
        assert run.best_runtime < 2.0 * 1.65


class TestSolverIntegration:
    def test_tuned_tiles_factorize_correctly(self):
        # Take the swing-tuned best tiles and run the *real* blocked solver.
        from repro.experiments import run_tuner

        bench = get_benchmark("lu", "large")
        run = run_tuner(bench, "ytopt", max_evals=10, seed=0)
        n = 24  # real execution at a test-friendly size
        solver = BlockedLU(n, run.best_config, panel=8)
        a = make_lu_friendly(n, seed=0)
        np.testing.assert_allclose(
            solver(a), lu_reference(a), rtol=1e-9, atol=1e-11
        )
