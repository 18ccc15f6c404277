"""Failure injection: every tuner must survive flaky and hostile evaluators.

Real measurement pipelines fail constantly (compile errors, timeouts, crashed
runners); AutoTVM and ytopt both record failures and keep searching. These
tests wrap the Swing evaluator with deterministic fault injection and assert
the searches complete, record the failures, and still find good configs.
"""

import math
from collections.abc import Mapping

import pytest

from repro.autotvm import GATuner, RandomTuner, XGBTuner, task_from_benchmark
from repro.common.errors import TuningError
from repro.common.rng import stable_hash01
from repro.common.timing import VirtualClock
from repro.kernels import get_benchmark
from repro.runtime.measure import FAILED_COST, Evaluator, MeasureResult
from repro.swing import SwingEvaluator
from repro.ytopt import AMBS, TuningProblem
from tests.autotvm.loop import run_search, search


class FlakyEvaluator(Evaluator):
    """Deterministically fails a fraction of evaluations (keyed on config)."""

    def __init__(self, inner: Evaluator, failure_rate: float = 0.3) -> None:
        self.inner = inner
        self.failure_rate = failure_rate
        self.clock = getattr(inner, "clock", None)
        self.n_failures = 0

    def evaluate(self, params: Mapping[str, int]) -> MeasureResult:
        result = self.inner.evaluate(params)
        if stable_hash01("flaky", sorted(params.items())) < self.failure_rate:
            self.n_failures += 1
            return MeasureResult(
                config=result.config,
                costs=(),
                compile_time=result.compile_time,
                timestamp=result.timestamp,
                error="injected runner crash",
            )
        return result

    def elapsed(self) -> float:
        return self.inner.elapsed()


def _flaky_setup(rate=0.3, kernel="cholesky", size="large"):
    bench = get_benchmark(kernel, size)
    inner = SwingEvaluator(bench.profile, clock=VirtualClock())
    return bench, FlakyEvaluator(inner, failure_rate=rate)


class TestAutoTVMUnderFailures:
    @pytest.mark.parametrize("tuner_cls", [RandomTuner, GATuner, XGBTuner])
    def test_tuner_survives_and_finds_config(self, tuner_cls):
        bench, flaky = _flaky_setup()
        tuner = tuner_cls(task_from_benchmark(bench, flaky), seed=0)
        result = run_search(tuner, 40)
        assert result.n_evals == 40
        assert flaky.n_failures > 0, "fault injection never triggered"
        failed = [r for r in result.database if not r.ok]
        assert len(failed) == flaky.n_failures
        # Failed trials reach the strategy as failures, never as runtimes.
        assert sum(c == FAILED_COST for c in tuner.costs.values()) == flaky.n_failures
        assert result.best_runtime < 1e9  # a successful config was still found

    def test_all_failures_still_completes(self):
        bench, flaky = _flaky_setup(rate=1.0)
        ambs = search(RandomTuner(task_from_benchmark(bench, flaky), seed=0), 10)
        with pytest.raises(TuningError):
            ambs.run()
        assert len(ambs.database) == 10
        assert all(t == math.inf for _, t in ambs.database.trajectory())


class TestYtoptUnderFailures:
    def test_bo_survives_failures(self):
        bench, flaky = _flaky_setup()
        problem = TuningProblem(bench.config_space(seed=0), flaky)
        result = AMBS(problem, max_evals=30, seed=0).run()
        assert result.n_evals == 30
        assert flaky.n_failures > 0
        assert result.best_runtime < 1e9
        # Failures appear in the database with the sentinel cost.
        failed = [r for r in result.database if not r.ok]
        assert len(failed) == flaky.n_failures

    def test_failures_do_not_poison_search(self):
        # With failures injected, the search must still land within 2x of a
        # failure-free run's best.
        bench, flaky = _flaky_setup(rate=0.25)
        flaky_best = AMBS(
            TuningProblem(bench.config_space(seed=1), flaky), max_evals=40, seed=1
        ).run().best_runtime

        clean = SwingEvaluator(bench.profile, clock=VirtualClock())
        clean_best = AMBS(
            TuningProblem(bench.config_space(seed=1), clean), max_evals=40, seed=1
        ).run().best_runtime
        assert flaky_best <= 2.0 * clean_best


class TestBatchMode:
    def test_ambs_batch_equivalent_coverage(self):
        bench = get_benchmark("lu", "large")
        ev = SwingEvaluator(bench.profile, clock=VirtualClock())
        result = AMBS(
            TuningProblem(bench.config_space(seed=0), ev),
            max_evals=24,
            seed=0,
            batch_size=8,
        ).run()
        assert result.n_evals == 24
        # No duplicate evaluations despite batching.
        keys = {tuple(sorted(r.config.items())) for r in result.database}
        assert len(keys) == 24

    def test_batch_size_validation(self):
        bench = get_benchmark("lu", "large")
        ev = SwingEvaluator(bench.profile, clock=VirtualClock())
        with pytest.raises(TuningError):
            AMBS(
                TuningProblem(bench.config_space(seed=0), ev),
                max_evals=5,
                batch_size=0,
            )
