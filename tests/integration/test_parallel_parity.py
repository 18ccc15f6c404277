"""Parallel-measurement integration: determinism, serial/parallel parity
and virtual-clock batch accounting."""

from __future__ import annotations

import pytest

from repro.common.timing import VirtualClock
from repro.kernels.registry import get_benchmark
from repro.experiments.runner import ALL_TUNERS, run_tuner
from repro.runtime import evaluate_batch
from repro.swing import SwingEvaluator


class TestDeterminism:
    """Same seed + same jobs count => identical best_config, per tuner."""

    @pytest.mark.parametrize("tuner", ALL_TUNERS)
    def test_repeat_run_identical(self, tuner):
        bench = get_benchmark("lu", "mini")
        a = run_tuner(bench, tuner, max_evals=12, seed=3, jobs=4)
        b = run_tuner(bench, tuner, max_evals=12, seed=3, jobs=4)
        assert a.best_config == b.best_config
        assert a.best_runtime == pytest.approx(b.best_runtime)
        assert a.total_time == pytest.approx(b.total_time)

    @pytest.mark.parametrize("tuner", ALL_TUNERS)
    def test_parallel_matches_serial_best(self, tuner):
        """jobs=4 must find the same best config as jobs=1 on a small space —
        parallel measurement changes process time, never the search outcome."""
        bench = get_benchmark("lu", "mini")
        serial = run_tuner(bench, tuner, max_evals=12, seed=0, jobs=1)
        parallel = run_tuner(bench, tuner, max_evals=12, seed=0, jobs=4)
        assert parallel.best_config == serial.best_config
        assert parallel.best_runtime == pytest.approx(serial.best_runtime)
        assert parallel.n_evals == serial.n_evals

    @pytest.mark.parametrize("tuner", ALL_TUNERS)
    def test_parallel_process_time_is_smaller(self, tuner):
        bench = get_benchmark("lu", "mini")
        serial = run_tuner(bench, tuner, max_evals=12, seed=0, jobs=1)
        parallel = run_tuner(bench, tuner, max_evals=12, seed=0, jobs=4)
        assert parallel.total_time < serial.total_time


class TestVirtualClockBatchAccounting:
    """Simulated parallel measurement charges max-of-wave, not sum."""

    def _evaluator(self):
        bench = get_benchmark("lu", "mini")
        return SwingEvaluator(bench.profile, clock=VirtualClock()), bench

    def _configs(self, bench, n):
        space = bench.config_space(seed=0)
        return [dict(space.sample_configuration()) for _ in range(n)]

    def test_batch_advances_by_max_not_sum(self):
        ev_ref, bench = self._evaluator()
        configs = self._configs(bench, 4)
        durations = []
        for cfg in configs:
            before = ev_ref.clock.now
            ev_ref.evaluate(cfg)
            durations.append(ev_ref.clock.now - before)
        assert sum(durations) > max(durations)  # the distinction is real

        ev, _ = self._evaluator()
        results = evaluate_batch(ev, configs, jobs=4)
        assert ev.clock.now == pytest.approx(max(durations))
        assert ev.clock.now < sum(durations)
        for r in results:
            assert r.timestamp == pytest.approx(ev.clock.now)
            assert r.extra["wave_jobs"] == 4.0

    def test_waves_accumulate(self):
        """6 configs at jobs=4 = two waves: max(first 4) + max(last 2)."""
        ev_ref, bench = self._evaluator()
        configs = self._configs(bench, 6)
        durations = []
        for cfg in configs:
            before = ev_ref.clock.now
            ev_ref.evaluate(cfg)
            durations.append(ev_ref.clock.now - before)

        ev, _ = self._evaluator()
        evaluate_batch(ev, configs, jobs=4)
        expected = max(durations[:4]) + max(durations[4:])
        assert ev.clock.now == pytest.approx(expected)

    def test_jobs_one_keeps_sequential_sum(self):
        ev_ref, bench = self._evaluator()
        configs = self._configs(bench, 3)
        for cfg in configs:
            ev_ref.evaluate(cfg)

        ev, _ = self._evaluator()
        evaluate_batch(ev, configs, jobs=1)
        assert ev.clock.now == pytest.approx(ev_ref.clock.now)

    def test_results_match_serial_costs(self):
        ev_ref, bench = self._evaluator()
        configs = self._configs(bench, 4)
        serial = [ev_ref.evaluate(cfg) for cfg in configs]

        ev, _ = self._evaluator()
        parallel = evaluate_batch(ev, configs, jobs=4)
        for s, p in zip(serial, parallel):
            assert p.costs == pytest.approx(s.costs)
            assert p.config == s.config
