"""AutoTVM's batch measurement semantics under the AMBS loop.

The strategies propose waves of 8; AMBS measures each wave and charges
AutoTVM's per-wave dispatch overhead to the virtual clock once.
"""

import pytest

from repro.autotvm import GridSearchTuner, RandomTuner
from repro.bench.tuners import autotvm_search
from tests.autotvm.loop import swing_problem


def _sequential_cost(kernel, size, configs, **evaluator_knobs):
    """Virtual seconds to measure ``configs`` one by one on a fresh evaluator."""
    _, evaluator = swing_problem(kernel, size)
    for name, value in evaluator_knobs.items():
        setattr(evaluator, name, value)
    for config in configs:
        evaluator.evaluate(config)
    return evaluator.clock.now


class TestMeasurer:
    """AMBS now plays AutoTVM's measurer: it measures each proposed wave."""

    def test_batch_measures_all(self):
        problem, _ = swing_problem()
        result = autotvm_search(RandomTuner(problem, seed=0), 3).run()
        assert result.n_evals == 3
        assert all(r.ok for r in result.database)

    def test_batch_overhead_charged(self):
        """One 8-config wave pays AutoTVM's 0.5 s overhead exactly once."""
        problem, evaluator = swing_problem()
        result = autotvm_search(RandomTuner(problem, seed=0), 8).run()
        configs = [r.config for r in result.database]
        measured = _sequential_cost("cholesky", "large", configs)
        assert evaluator.clock.now == pytest.approx(measured + 0.5)
        assert result.overhead is not None  # the loop's stage accounting

    def test_empty_batch_free(self):
        """gemm/mini holds 18 configs: waves of 8, 8 and 2, then an empty ask
        that ends the run without charging a fourth overhead."""
        problem, evaluator = swing_problem("gemm", "mini")
        result = autotvm_search(GridSearchTuner(problem), 70).run()
        assert result.n_evals == 18
        configs = [r.config for r in result.database]
        measured = _sequential_cost("gemm", "mini", configs)
        assert evaluator.clock.now == pytest.approx(measured + 3 * 0.5)

    def test_repeated_runs_cost_more_time(self):
        one = _sequential_cost("cholesky", "large", [{"P0": 1, "P1": 1}], number=1)
        problem, ev = swing_problem()
        ev.number = 4
        autotvm_search(GridSearchTuner(problem), 1).run()
        assert ev.clock.now > one + 0.5
