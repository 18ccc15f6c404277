"""Tests for the SwingEvaluator (simulated measurement + virtual clock)."""

import pytest

from repro.common.errors import ReproError
from repro.common.timing import VirtualClock
from repro.kernels import get_benchmark
from repro.swing import SwingEvaluator, SwingPerformanceModel


@pytest.fixture
def profile():
    return get_benchmark("lu", "large").profile


class TestEvaluate:
    def test_successful_result(self, profile):
        ev = SwingEvaluator(profile, clock=VirtualClock())
        res = ev.evaluate({"P0": 40, "P1": 50})
        assert res.ok
        assert res.mean_cost > 0
        assert res.compile_time > 0
        assert res.timestamp == ev.clock.now

    def test_clock_advances_by_compile_plus_runs(self, profile):
        clock = VirtualClock()
        ev = SwingEvaluator(profile, clock=clock, number=1, measure_overhead=0.0)
        res = ev.evaluate({"P0": 40, "P1": 50})
        assert clock.now == pytest.approx(res.compile_time + res.costs[0])

    def test_number_multiplies_run_charge(self, profile):
        c1, c3 = VirtualClock(), VirtualClock()
        SwingEvaluator(profile, clock=c1, number=1).evaluate({"P0": 40, "P1": 50})
        SwingEvaluator(profile, clock=c3, number=3).evaluate({"P0": 40, "P1": 50})
        assert c3.now > c1.now + 2.0  # two extra multi-second runs

    def test_compile_parallelism_discounts_charge(self, profile):
        cfg = {"P0": 40, "P1": 50}
        serial = SwingEvaluator(profile, clock=VirtualClock(), compile_parallelism=1)
        r1 = serial.evaluate(cfg)
        parallel = SwingEvaluator(profile, clock=VirtualClock(), compile_parallelism=8)
        r8 = parallel.evaluate(cfg)
        assert r1.compile_time == r8.compile_time  # reported build cost equal
        assert r8.extra["charged_compile"] == pytest.approx(r1.compile_time / 8)

    def test_counts_evaluations(self, profile):
        ev = SwingEvaluator(profile, clock=VirtualClock())
        ev.evaluate({"P0": 8, "P1": 8})
        ev.evaluate({"P0": 4, "P1": 4})
        assert ev.n_evaluations == 2

    def test_repeat_gives_multiple_costs(self, profile):
        ev = SwingEvaluator(profile, clock=VirtualClock(), repeat=3)
        res = ev.evaluate({"P0": 40, "P1": 50})
        assert len(res.costs) == 3

    def test_missing_param_is_failed_measurement(self, profile):
        ev = SwingEvaluator(profile, clock=VirtualClock())
        res = ev.evaluate({"P0": 40})  # P1 missing
        assert not res.ok
        assert "compile error" in res.error
        assert ev.clock.now > 0  # attempt still cost time

    def test_timeout_reported(self, profile):
        # All-1 tiles run for hundreds of virtual seconds.
        ev = SwingEvaluator(profile, clock=VirtualClock(), timeout=10.0)
        res = ev.evaluate({"P0": 1, "P1": 1})
        assert not res.ok
        assert "timeout" in res.error

    def test_fast_config_not_timed_out(self, profile):
        ev = SwingEvaluator(profile, clock=VirtualClock(), timeout=100.0)
        res = ev.evaluate({"P0": 80, "P1": 80})
        assert res.ok

    def test_validation(self, profile):
        with pytest.raises(ReproError):
            SwingEvaluator(profile, number=0)
        with pytest.raises(ReproError):
            SwingEvaluator(profile, compile_parallelism=0)
        with pytest.raises(ReproError):
            SwingEvaluator(profile, timeout=0.0)

    def test_elapsed_tracks_clock(self, profile):
        clock = VirtualClock(100.0)
        ev = SwingEvaluator(profile, clock=clock)
        assert ev.elapsed() == 100.0
