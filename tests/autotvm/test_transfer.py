"""Tests for transfer learning from tuning records."""

import pytest

from repro.autotvm import RandomTuner, XGBTuner
from repro.autotvm.record import TuningRecord
from repro.autotvm.transfer import apply_history_best, warm_start
from repro.common.errors import TuningError
from tests.autotvm.loop import run_search, swing_task, tuning_records


def _task(kernel="cholesky", size="large"):
    return swing_task(kernel, size)


def _records_from_run(n=30, seed=0):
    task, _ = _task()
    result = run_search(RandomTuner(task, seed=seed), n)
    return tuning_records(result, task.name), result


class TestApplyHistoryBest:
    def test_picks_recorded_minimum(self):
        records, result = _records_from_run()
        task, _ = _task()
        entity, cost = apply_history_best(task, records)
        assert cost == result.best_runtime
        assert entity.to_dict() == result.best_config

    def test_skips_other_tasks(self):
        records, _ = _records_from_run()
        other_task, _ = _task("lu", "extralarge")
        with pytest.raises(TuningError):
            apply_history_best(other_task, records)

    def test_skips_failed_records(self):
        task, _ = _task()
        records = [
            TuningRecord(task.name, "x", {"P0": 1, "P1": 1}, (), 0.1, 1.0, error="boom")
        ]
        with pytest.raises(TuningError):
            apply_history_best(task, records)

    def test_skips_foreign_configs(self):
        task, _ = _task()
        # P0=7 is not a divisor of 2000 — from an incompatible space.
        records = [
            TuningRecord(task.name, "x", {"P0": 7, "P1": 1}, (1.0,), 0.1, 1.0),
            TuningRecord(task.name, "x", {"P0": 50, "P1": 50}, (2.5,), 0.1, 1.0),
        ]
        entity, cost = apply_history_best(task, records)
        assert entity.to_dict() == {"P0": 50, "P1": 50} and cost == 2.5


class TestWarmStart:
    def test_absorbs_records_and_trains_model(self):
        records, _ = _records_from_run(n=30)
        task, _ = _task()
        tuner = XGBTuner(task, seed=1)
        absorbed = warm_start(tuner, records)
        assert absorbed == 30
        assert tuner.model is not None
        assert len(tuner.visited) == 30
        assert len(tuner._y) == 30  # every transferred runtime trains the model

    def test_no_remeasure_of_transferred_configs(self):
        records, _ = _records_from_run(n=25)
        task, _ = _task()
        tuner = XGBTuner(task, seed=2)
        warm_start(tuner, records)
        transferred = set(tuner.visited)
        run_search(tuner, 20)
        new_visits = tuner.visited - transferred
        assert len(new_visits) == 20

    def test_warm_started_run_no_worse_than_cold(self):
        records, prior = _records_from_run(n=40, seed=3)
        task_w, _ = _task()
        warm = XGBTuner(task_w, seed=4)
        warm_start(warm, records)
        result = run_search(warm, 16)

        # The model starts trained on the prior run, so 16 model-ranked
        # evaluations do at least as well as the 40 random ones it learned from.
        assert result.best_runtime <= prior.best_runtime

    def test_foreign_records_ignored(self):
        task, _ = _task()
        tuner = XGBTuner(task, seed=0)
        foreign = [
            TuningRecord("other-task", "x", {"P0": 1, "P1": 1}, (1.0,), 0.1, 1.0)
        ]
        assert warm_start(tuner, foreign) == 0
