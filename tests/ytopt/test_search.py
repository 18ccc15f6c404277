"""Tests for the AMBS search loop."""

import pytest

from repro.bench import registry
from repro.common.errors import TuningError
from repro.common.timing import VirtualClock
from repro.kernels import get_benchmark
from repro.service import JobSpec, TuningSession
from repro.swing import SwingEvaluator
from repro.ytopt import AMBS, Optimizer, TuningProblem


def _problem(seed=0, **ev_kwargs):
    bench = get_benchmark("lu", "large")
    evaluator = SwingEvaluator(bench.profile, clock=VirtualClock(), **ev_kwargs)
    return TuningProblem(bench.config_space(seed=seed), evaluator, name="lu-large")


def _search(seed=0, **kw):
    """AMBS over lu/large with the RF optimizer seeded like its space."""
    problem = _problem(seed=seed)
    return AMBS(problem, Optimizer(problem.space, seed=seed), **kw)


class TestAMBS:
    def test_runs_max_evals(self):
        search = _search(max_evals=12)
        result = search.run()
        assert result.n_evals == 12
        assert result.best_runtime > 0
        assert result.best_config  # non-empty

    def test_database_populated(self):
        search = _search(max_evals=8)
        result = search.run()
        assert len(result.database) == 8
        assert result.database.best().runtime == result.best_runtime

    def test_process_time_accumulates(self):
        search = _search(max_evals=5)
        result = search.run()
        traj = result.database.trajectory()
        times = [t for t, _ in traj]
        assert times == sorted(times)
        assert result.total_elapsed == times[-1]

    def test_max_time_stops_early(self):
        # Virtual seconds: LU-large evals take ~2s+ each, so a tight budget
        # must cut the run short.
        search = _search(max_evals=100, max_time=30.0)
        result = search.run()
        assert result.n_evals < 100

    def test_optimizer_overhead_charged(self):
        r1 = _search(max_evals=5, optimizer_overhead=0.0).run()
        r2 = _search(max_evals=5, optimizer_overhead=10.0).run()
        assert r2.total_elapsed > r1.total_elapsed + 40.0

    def test_validation(self):
        with pytest.raises(TuningError):
            _search(max_evals=0)
        with pytest.raises(TuningError):
            _search(max_time=-1.0)

    def test_seeded_determinism(self):
        r1 = _search(seed=3, max_evals=10).run()
        r2 = _search(seed=3, max_evals=10).run()
        assert r1.best_config == r2.best_config
        assert r1.best_runtime == r2.best_runtime


class TestOverheadBreakdown:
    """Under a virtual clock the breakdown is on that clock: the stages add
    up to the wall column, which is the run's process time."""

    @pytest.mark.parametrize("jobs", [1, 4])
    @pytest.mark.parametrize("tuner", registry.tuner_names())
    def test_stages_add_up_to_process_time(self, tuner, jobs):
        run = TuningSession(
            JobSpec(kernel="lu", size="mini", tuner=tuner, max_evals=12, seed=0, jobs=jobs)
        ).run()
        o = run.overhead
        search, compile_s, measure, wall = (
            o[f"{stage}_seconds"] for stage in ("search", "compile", "measure", "wall")
        )
        assert min(search, compile_s, measure) >= 0.0
        assert search + compile_s + measure == pytest.approx(wall, abs=1e-6)
        assert wall == pytest.approx(run.total_time, abs=1e-6)

    @pytest.mark.parametrize(
        "spec",
        [
            dict(tuner="AutoTVM-GA"),
            # Half of the trials time out (lu/mini runtimes are 8.5-69 us).
            dict(tuner="AutoTVM-GA", timeout=1.1e-5),
            # Promoted trials reuse the probe's build.
            dict(tuner="ytopt", repeats=3, probe_repeats=1),
            # The first trial's probe passes and its top-up times out.
            dict(tuner="ytopt", repeats=3, probe_repeats=1, timeout=8.6e-6),
        ],
        ids=["autotvm", "autotvm-timeouts", "ytopt-promotions", "ytopt-promotions-timeouts"],
    )
    def test_compile_is_what_the_clock_charged(self, spec):
        """AutoTVM builds 8 at a time, so each trial is charged 1/8 of its
        compile time; ytopt builds each configuration once."""
        session = TuningSession(JobSpec(kernel="lu", size="mini", max_evals=12, seed=0, **spec))
        o = session.run().overhead
        search = getattr(session.autotuner, "_search", session.autotuner)
        if "timeout" in spec and spec["tuner"] == "ytopt":
            assert any(r.fidelity == "promoted" and not r.ok for r in search.database)
        raw = sum(r.compile_time for r in search.database)
        builders = 8 if spec["tuner"].startswith("AutoTVM") else 1
        assert o["compile_seconds"] == pytest.approx(raw / builders)
        assert o["search_seconds"] + o["compile_seconds"] + o["measure_seconds"] == (
            pytest.approx(o["wall_seconds"], abs=1e-6)
        )
