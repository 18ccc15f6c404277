"""Tests for the simulated-annealing model optimizer."""

import numpy as np
import pytest

from repro.autotvm import XGBTuner
from repro.autotvm.tuner.sa import SimulatedAnnealingOptimizer
from repro.common.errors import TuningError
from tests.autotvm.loop import run_search, swing_task


def _bowl_score(target):
    def score(states):
        return np.array(
            [sum((a - b) ** 2 for a, b in zip(s, target)) for s in states],
            dtype=float,
        )

    return score


class TestSAOptimizer:
    def test_finds_known_minimum(self):
        sa = SimulatedAnnealingOptimizer([20, 20], n_chains=32, n_steps=120, seed=0)
        best = sa.find_maximums(_bowl_score((7, 13)), num=3)
        assert best[0] == (7, 13)

    def test_results_sorted_by_score(self):
        sa = SimulatedAnnealingOptimizer([15, 15], seed=1)
        score = _bowl_score((5, 5))
        out = sa.find_maximums(score, num=5)
        vals = score(out)
        assert list(vals) == sorted(vals)

    def test_exclude_respected(self):
        sa = SimulatedAnnealingOptimizer([10, 10], n_chains=32, n_steps=100, seed=2)
        target = (4, 4)
        out = sa.find_maximums(_bowl_score(target), num=4, exclude={target})
        assert target not in out

    def test_seeds_accepted(self):
        sa = SimulatedAnnealingOptimizer([30, 30], n_chains=8, n_steps=30, seed=3)
        out = sa.find_maximums(
            _bowl_score((20, 20)), num=2, seeds=[(20, 20), (19, 20)]
        )
        assert (20, 20) in out

    def test_states_within_gene_sizes(self):
        sa = SimulatedAnnealingOptimizer([3, 7, 2], n_chains=16, n_steps=40, seed=4)
        out = sa.find_maximums(_bowl_score((1, 3, 1)), num=8)
        for s in out:
            assert all(0 <= x < g for x, g in zip(s, (3, 7, 2)))

    def test_deterministic_with_seed(self):
        a = SimulatedAnnealingOptimizer([12, 12], seed=5).find_maximums(
            _bowl_score((3, 9)), num=4
        )
        b = SimulatedAnnealingOptimizer([12, 12], seed=5).find_maximums(
            _bowl_score((3, 9)), num=4
        )
        assert a == b

    def test_validation(self):
        with pytest.raises(TuningError):
            SimulatedAnnealingOptimizer([])
        with pytest.raises(TuningError):
            SimulatedAnnealingOptimizer([5], n_chains=0)
        with pytest.raises(TuningError):
            SimulatedAnnealingOptimizer([5], temp_start=0.1, temp_end=0.5)


class TestXGBTunerWithSA:
    def _setup(self):
        return swing_task("cholesky", "large")[0]

    def test_sa_plan_runs(self):
        tuner = XGBTuner(self._setup(), plan_optimizer="sa", seed=0)
        result = run_search(tuner, 40)
        assert result.n_evals == 40
        assert result.best_runtime < 10.0  # close to the ~1.65s optimum, far from the corner

    def test_sa_never_revisits(self):
        tuner = XGBTuner(self._setup(), plan_optimizer="sa", seed=1)
        result = run_search(tuner, 48)
        configs = {tuple(sorted(r.config.items())) for r in result.database}
        assert len(configs) == 48

    def test_invalid_optimizer_rejected(self):
        with pytest.raises(TuningError):
            XGBTuner(self._setup(), plan_optimizer="gradient")
