"""Tests for the performance database."""

import math

import pytest

from repro.common.errors import TuningError
from repro.runtime.measure import FAILED_COST, MeasureResult
from repro.ytopt import PerformanceDatabase


def _result(cost, t, cfg=None, error=None):
    return MeasureResult(
        config=cfg or {"P0": 1},
        costs=(cost,) if error is None else (),
        compile_time=0.5,
        timestamp=t,
        error=error,
    )


class TestDatabase:
    def test_add_and_len(self):
        db = PerformanceDatabase()
        db.add(_result(1.0, 1.0), tuner="t")
        db.add(_result(2.0, 2.0), tuner="t")
        assert len(db) == 2

    def test_best_ignores_failures(self):
        db = PerformanceDatabase()
        db.add(_result(5.0, 1.0), tuner="t")
        db.add(_result(0.0, 2.0, error="boom"), tuner="t")
        db.add(_result(2.0, 3.0, cfg={"P0": 9}), tuner="t")
        best = db.best()
        assert best.runtime == 2.0 and best.config == {"P0": 9}

    def test_best_empty_rejected(self):
        with pytest.raises(TuningError):
            PerformanceDatabase().best()

    def test_best_all_failed_rejected(self):
        db = PerformanceDatabase()
        db.add(_result(0.0, 1.0, error="x"), tuner="t")
        with pytest.raises(TuningError):
            db.best()

    def test_trajectory(self):
        db = PerformanceDatabase()
        db.add(_result(3.0, 1.0), tuner="t")
        db.add(_result(1.0, 2.5), tuner="t")
        assert db.trajectory() == [(1.0, 3.0), (2.5, 1.0)]

    def test_failed_trajectory_uses_sentinel(self):
        db = PerformanceDatabase()
        db.add(_result(0.0, 1.0, error="x"), tuner="t")
        assert db.records()[0].runtime == FAILED_COST  # the stored row keeps it
        assert db.trajectory()[0][1] == math.inf  # the series reads it as failed

    def test_best_so_far_monotone(self):
        db = PerformanceDatabase()
        for cost, t in [(5.0, 1), (7.0, 2), (2.0, 3), (9.0, 4)]:
            db.add(_result(cost, t), tuner="t")
        bsf = db.best_so_far()
        assert bsf == [5.0, 5.0, 2.0, 2.0]

    def test_best_so_far_starts_inf_on_failure(self):
        db = PerformanceDatabase()
        db.add(_result(0.0, 1.0, error="x"), tuner="t")
        assert math.isinf(db.best_so_far()[0])

    def test_total_elapsed(self):
        db = PerformanceDatabase()
        assert db.total_elapsed() == 0.0
        db.add(_result(1.0, 42.5), tuner="t")
        assert db.total_elapsed() == 42.5

    def test_csv_roundtrip(self, tmp_path):
        db = PerformanceDatabase("x")
        db.add(_result(1.5, 1.0, cfg={"P0": 4, "P1": 8}), tuner="ytopt")
        db.add(_result(0.0, 2.0, error="timeout"), tuner="ytopt")
        path = tmp_path / "db.csv"
        db.to_csv(path)
        loaded = PerformanceDatabase.from_csv(path)
        assert len(loaded) == 2
        assert loaded.records()[0].config == {"P0": 4, "P1": 8}
        assert loaded.records()[0].runtime == 1.5
        assert loaded.records()[1].error == "timeout"
