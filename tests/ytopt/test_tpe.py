"""Tests for the TPE density-ratio optimizer."""

import numpy as np
import pytest

from repro.common.errors import SpaceError, TuningError
from repro.configspace import ConfigurationSpace, OrdinalHyperparameter
from repro.ytopt import TPEOptimizer


def _space(seed=None):
    cs = ConfigurationSpace(seed=seed)
    cs.add_hyperparameter(OrdinalHyperparameter("P0", [1, 2, 4, 8, 16]))
    cs.add_hyperparameter(OrdinalHyperparameter("P1", [1, 3, 9, 27]))
    return cs


def _cost(config):
    # Minimum at P0=4, P1=9 — a smooth bowl over the candidate grid.
    return (np.log2(config["P0"] / 4) ** 2 + np.log(config["P1"] / 9) ** 2) + 0.1


class TestConstruction:
    def test_rejects_empty_space(self):
        with pytest.raises(SpaceError, match="no hyperparameters"):
            TPEOptimizer(ConfigurationSpace())

    def test_rejects_bad_hyperparameters(self):
        with pytest.raises(TuningError):
            TPEOptimizer(_space(), n_initial_points=0)
        with pytest.raises(TuningError):
            TPEOptimizer(_space(), gamma=1.0)
        with pytest.raises(TuningError):
            TPEOptimizer(_space(), n_candidates=0)
        with pytest.raises(TuningError):
            TPEOptimizer(_space(), prior_weight=0.0)


class TestAskTell:
    def test_initial_design_is_random_and_unseen(self):
        opt = TPEOptimizer(_space(), n_initial_points=5, seed=0)
        seen = set()
        for _ in range(5):
            c = opt.ask()
            key = (c["P0"], c["P1"])
            assert key not in seen
            seen.add(key)
            opt.tell(c, _cost(c))

    def test_tell_accepts_plain_mappings(self):
        opt = TPEOptimizer(_space(), seed=0)
        opt.tell({"P0": 4, "P1": 9}, 0.1)
        assert opt.n_told == 1
        config, cost = opt.best()
        assert config == {"P0": 4, "P1": 9} and cost == 0.1

    def test_tell_rejects_nonfinite_cost(self):
        opt = TPEOptimizer(_space(), seed=0)
        with pytest.raises(TuningError):
            opt.tell({"P0": 4, "P1": 9}, float("inf"))

    def test_best_before_tell(self):
        with pytest.raises(TuningError):
            TPEOptimizer(_space(), seed=0).best()

    def test_predict_cost_is_none(self):
        opt = TPEOptimizer(_space(), seed=0)
        opt.tell({"P0": 4, "P1": 9}, 0.1)
        assert opt.predict_cost({"P0": 1, "P1": 1}) is None

    def test_suggestions_avoid_told_configs(self):
        opt = TPEOptimizer(_space(), n_initial_points=3, seed=0)
        told = set()
        for _ in range(15):  # 20-config space: every ask stays fresh here
            c = opt.ask()
            key = (c["P0"], c["P1"])
            assert key not in told
            told.add(key)
            opt.tell(c, _cost(c))

    def test_ask_batch_returns_distinct_configs(self):
        opt = TPEOptimizer(_space(), n_initial_points=3, seed=0)
        for _ in range(4):
            c = opt.ask()
            opt.tell(c, _cost(c))
        n_told = opt.n_told
        batch = opt.ask_batch(3)
        assert len({(c["P0"], c["P1"]) for c in batch}) == 3
        assert opt.n_told == n_told  # constant liars retracted


class TestSearchBehavior:
    def test_deterministic_per_seed(self):
        def run(seed):
            opt = TPEOptimizer(_space(seed=seed), n_initial_points=4, seed=seed)
            out = []
            for _ in range(12):
                c = opt.ask()
                opt.tell(c, _cost(c))
                out.append((c["P0"], c["P1"]))
            return out

        assert run(0) == run(0)
        assert run(0) != run(1)  # different seed, different trajectory

    def test_concentrates_on_good_region(self):
        # After warmup, density-ratio suggestions should find the bowl's
        # bottom in a 20-config space well before exhausting it.
        opt = TPEOptimizer(_space(seed=0), n_initial_points=5, seed=0)
        for _ in range(14):
            c = opt.ask()
            opt.tell(c, _cost(c))
        config, cost = opt.best()
        assert cost == pytest.approx(0.1)
        assert config == {"P0": 4, "P1": 9}

    def test_exhausted_space_still_asks(self):
        cs = ConfigurationSpace(seed=0)
        cs.add_hyperparameter(OrdinalHyperparameter("P0", [1, 2]))
        opt = TPEOptimizer(cs, n_initial_points=1, seed=0)
        for _ in range(4):  # more asks than configs: duplicates allowed at end
            c = opt.ask()
            opt.tell(c, 1.0 + c["P0"])
        assert opt.n_told == 4
