"""Tests for the four AutoTVM tuner strategies, driven by the AMBS loop."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.autotvm import (
    GATuner,
    GridSearchTuner,
    RandomTuner,
    XGBTuner,
    PAPER_XGB_TRIAL_CAP,
)
from repro.common.errors import SpaceError, TuningError
from repro.common.timing import VirtualClock
from repro.configspace import ConfigurationSpace, OrdinalHyperparameter
from repro.runtime.measure import Evaluator, MeasureResult
from repro.service import JobSpec, TuningSession
from repro.ytopt import TuningProblem
from tests.autotvm.loop import deadline, run_search, search, swing_problem

STRATEGIES = [RandomTuner, GridSearchTuner, GATuner, XGBTuner]


def _setup(kernel="cholesky", size="large"):
    return swing_problem(kernel, size)[0]


def _unique_configs(result):
    return {tuple(sorted(r.config.items())) for r in result.database}


class TestTuningLoop:
    def test_n_trial_respected(self):
        result = run_search(RandomTuner(_setup(), seed=0), 20)
        assert result.n_evals == 20

    def test_no_duplicate_configs(self):
        result = run_search(RandomTuner(_setup(), seed=0), 50)
        assert len(_unique_configs(result)) == 50

    def test_best_tracks_minimum(self):
        result = run_search(RandomTuner(_setup(), seed=1), 30)
        assert result.best_runtime == min(r.runtime for r in result.database)

    def test_best_before_tune_rejected(self):
        with pytest.raises(TuningError):
            search(RandomTuner(_setup()), 5).database.best()

    def test_invalid_args_rejected(self):
        with pytest.raises(TuningError):
            search(RandomTuner(_setup()), 0)

    def test_exhausts_small_space(self):
        # cholesky-large space has 400 points; ask for more.
        tuner = RandomTuner(_setup(), seed=0)
        result = run_search(tuner, 500)
        assert result.n_evals == 400
        assert not tuner.has_next()

    def test_trajectory_timestamps_monotone(self):
        result = run_search(RandomTuner(_setup(), seed=2), 15)
        times = [t for t, _ in result.database.trajectory()]
        assert times == sorted(times)

    def test_tells_reach_update_once_per_wave(self):
        waves = []

        class Recording(RandomTuner):
            def update(self, configs, costs):
                waves.append(len(configs))

        tuner = Recording(_setup(), seed=0)
        run_search(tuner, 20)
        # Waves of 8, 8, 4; the last wave's tells are never asked for.
        assert waves == [8, 8]
        assert len(tuner.visited) == len(tuner.costs) == 20


class TestGridSearch:
    def test_enumerates_from_smallest_corner(self):
        records = run_search(GridSearchTuner(_setup(), seed=0), 3).database.records()
        # Code 0 = both parameters at their first (smallest) value.
        assert records[0].config == {"P0": 1, "P1": 1}
        assert records[1].config["P0"] == 2  # first parameter varies fastest

    def test_deterministic(self):
        r1 = run_search(GridSearchTuner(_setup(), seed=0), 10).database
        r2 = run_search(GridSearchTuner(_setup(), seed=99), 10).database
        assert [r.config for r in r1] == [r.config for r in r2]


class TestGATuner:
    def test_improves_over_generations(self):
        result = run_search(GATuner(_setup(), pop_size=8, seed=0), 80)
        first_gen = min(r.runtime for r in result.database.records()[:8])
        assert result.best_runtime <= first_gen

    def test_unique_visits(self):
        result = run_search(GATuner(_setup(), seed=3), 40)
        assert len(_unique_configs(result)) == result.n_evals


class TestXGBTuner:
    def test_paper_cap_reproduced(self):
        # The session caps AutoTVM-XGB's budget at the paper's 56 evaluations.
        run = TuningSession(
            JobSpec(kernel="cholesky", size="large", tuner="AutoTVM-XGB",
                    max_evals=100, seed=0)
        ).run()
        assert run.n_evals == PAPER_XGB_TRIAL_CAP == 56

    def test_uncapped_reaches_budget(self):
        result = run_search(XGBTuner(_setup(), seed=0), 80)
        assert result.n_evals == 80

    def test_model_trained_after_min_train(self):
        tuner = XGBTuner(_setup(), min_train=8, seed=0)
        run_search(tuner, 24)
        assert tuner.model is not None

    def test_model_guides_search_better_than_grid(self):
        best_xgb = run_search(XGBTuner(_setup(), seed=0), 56).best_runtime
        best_grid = run_search(GridSearchTuner(_setup(), seed=0), 56).best_runtime
        assert best_xgb < best_grid

    def test_block_features_match_per_config_formula(self):
        problem = _setup("3mm", "large")
        tuner = XGBTuner(problem, seed=0)
        n = len(tuner.view)
        codes = [0, n - 1, *np.random.default_rng(0).integers(n, size=30)]
        expected = []
        for code in codes:
            config = tuner.view.configuration(tuner.view.rows(code))
            row = []
            for hp in problem.space.get_hyperparameters():
                i, k = hp.index_of(config[hp.name]), int(hp.size())
                row += [i / (k - 1) if k > 1 else 0.0, math.log2(config[hp.name])]
            expected.append(row)
        assert tuner._features(codes).tolist() == expected

    def test_validation(self):
        problem = _setup()
        with pytest.raises(TuningError):
            XGBTuner(problem, plan_size=0)
        with pytest.raises(TuningError):
            XGBTuner(problem, plan_size=10, candidate_num=5)


class TestSpaceRequirement:
    """The strategies search index-view codes. A space without
    hyperparameters has none: ``TuningProblem`` refuses it, and so does a
    strategy handed one directly."""

    @pytest.mark.parametrize("tuner_cls", STRATEGIES)
    def test_space_without_hyperparameters_rejected(self, tuner_cls):
        with pytest.raises(SpaceError):
            TuningProblem(ConfigurationSpace(), _BowlEvaluator(), name="bowl")
        problem = SimpleNamespace(space=ConfigurationSpace(), name="bowl")
        with pytest.raises(SpaceError, match="no hyperparameters"):
            tuner_cls(problem, seed=0)


class _BowlEvaluator(Evaluator):
    """One simulated second per trial; cost is a bowl around (a=17, b=30)."""

    def __init__(self) -> None:
        self.clock = VirtualClock()

    def elapsed(self) -> float:
        return self.clock.now

    def evaluate(self, params):
        self.clock.advance(1.0)
        cost = 1.0 + (params["a"] - 17) ** 2 + (params["b"] - 30) ** 2
        return MeasureResult(
            config=dict(params), costs=(float(cost),), compile_time=0.0,
            timestamp=self.clock.now,
        )


def _bowl_problem():
    space = ConfigurationSpace()
    space.add_hyperparameter(OrdinalHyperparameter("a", list(range(1, 51))))
    space.add_hyperparameter(OrdinalHyperparameter("b", list(range(1, 42))))
    assert space.size() == 2050
    return TuningProblem(space, _BowlEvaluator(), name="bowl")


class TestExhaustion:
    """Every strategy stops once it has measured its whole space."""

    @pytest.mark.parametrize(
        "tuner",
        ["AutoTVM-Random", "AutoTVM-GridSearch", "AutoTVM-GA", "AutoTVM-XGB"],
    )
    @pytest.mark.parametrize(
        "kernel,space_size",
        [("gemm", 18), ("syrk", 36), ("trmm", 48), ("lu", 64), ("cholesky", 64),
         ("jacobi2d", 64)],
    )
    def test_mini_space_runs_out(self, tuner, kernel, space_size):
        # Uncapped: AutoTVM-XGB's paper cap (56) would stop it short of 64.
        session = TuningSession(
            JobSpec(kernel=kernel, size="mini", tuner=tuner, max_evals=70, seed=0),
            xgb_trial_cap=None,
        )
        with deadline(60):
            run = session.run()
        assert run.n_evals == space_size
        assert len(_unique_configs(session.autotuner)) == space_size

    def test_xgb_just_above_candidate_pool_finishes(self):
        # 2050 points: once a few are visited, fewer unvisited configs remain
        # than the 2048-candidate pool draws.
        tuner = XGBTuner(_bowl_problem(), seed=0)
        with deadline(60):
            result = run_search(tuner, 40)
        assert result.n_evals == len(_unique_configs(result)) == 40

    def test_dense_visited_set_falls_back_to_scanning(self):
        # Random draws hit the 40 unvisited codes of 2050 about once in 50
        # tries; after the rejection budget the scan collects the rest,
        # skipping the ones already drawn.
        tuner = XGBTuner(_bowl_problem(), seed=0)
        left = list(range(5, 2050, 52))
        tuner.visited = set(range(2050)) - set(left)
        assert sorted(tuner._random_unvisited(40)) == left
