"""`repro report` / `repro compare`: reconstruction, golden output, diffing."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.common.errors import ReproError
from repro.telemetry import RunFinished, RunStarted, RunStore, TrialMeasured, make_run_id
from repro.telemetry.report import (
    compare_stores,
    evals_to_best_table,
    evals_to_within,
    evaluation_count_table,
    experiment_from_store,
    report_text,
)

GOLDEN = Path(__file__).parent / "golden_report.txt"


def _save(store: RunStore, kernel, size, tuner, seed, best, total, trials) -> None:
    started = RunStarted(
        run_id=make_run_id(kernel, size, tuner, seed),
        kernel=kernel,
        size_name=size,
        tuner=tuner,
        seed=seed,
        max_evals=len(trials),
        metadata={"seed": seed},
    )
    finished = RunFinished(
        run_id=started.run_id,
        best_runtime=best,
        best_config={"P0": 16, "P1": 8},
        n_evals=len(trials),
        total_time=total,
    )
    store.save_run(started, finished, trials)


def _trial(runtime, elapsed, error=None, cache_hit=False) -> TrialMeasured:
    return TrialMeasured(
        config={"P0": 16},
        runtime=runtime,
        compile_time=0.5,
        elapsed=elapsed,
        error=error,
        cache_hit=cache_hit,
    )


def build_golden_store(path) -> RunStore:
    """A fixed two-tuner store; every number below is hand-chosen, so the
    rendered report is fully deterministic (no clocks, no RNG)."""
    store = RunStore(path)
    _save(
        store,
        "lu",
        "large",
        "ytopt",
        0,
        best=0.0123,
        total=45.6,
        trials=[
            _trial(0.05, 10.0),
            _trial(1e10, 20.0, error="validation failed"),
            _trial(0.0123, 45.6, cache_hit=True),
        ],
    )
    _save(
        store,
        "lu",
        "large",
        "AutoTVM-GA",
        0,
        best=0.0456,
        total=78.9,
        trials=[
            _trial(0.09, 30.0),
            _trial(0.0456, 78.9),
        ],
    )
    return store


class TestReconstruction:
    def test_experiment_from_store_shape(self, tmp_path):
        with build_golden_store(tmp_path / "g.sqlite") as store:
            result = experiment_from_store(store, "lu", "large")
        assert set(result.runs) == {"ytopt", "AutoTVM-GA"}
        assert result.max_evals == 3
        ytopt = result.runs["ytopt"]
        assert ytopt.best_runtime == 0.0123
        assert ytopt.total_time == 45.6
        # a failed trial is inf for ytopt too, as the live database reports it
        assert ytopt.trajectory == [(10.0, 0.05), (20.0, float("inf")), (45.6, 0.0123)]

    def test_autotvm_failures_become_inf(self, tmp_path):
        with RunStore(tmp_path / "r.sqlite") as store:
            _save(
                store,
                "lu",
                "large",
                "AutoTVM-GA",
                0,
                best=1.0,
                total=5.0,
                trials=[_trial(1.0, 2.0), _trial(9.9, 5.0, error="crash")],
            )
            run = experiment_from_store(store, "lu", "large").runs["AutoTVM-GA"]
        assert run.trajectory == [(2.0, 1.0), (5.0, float("inf"))]

    def test_missing_experiment_raises(self, tmp_path):
        with RunStore(tmp_path / "r.sqlite") as store:
            with pytest.raises(ReproError, match="no stored runs"):
                experiment_from_store(store, "lu", "large")
            with pytest.raises(ReproError, match="no stored runs"):
                report_text(store)


class TestGoldenReport:
    def test_report_matches_golden_file(self, tmp_path):
        """Golden-file test: the full `repro report` text is stable.

        Regenerate after an intentional format change with:
            PYTHONPATH=src:tests python -c "
            from telemetry.test_report import regenerate_golden; regenerate_golden()"
        """
        with build_golden_store(tmp_path / "g.sqlite") as store:
            text = report_text(store)
        assert text == GOLDEN.read_text()

    def test_report_filters(self, tmp_path):
        with build_golden_store(tmp_path / "g.sqlite") as store:
            _save(store, "cholesky", "large", "ytopt", 0, 1.0, 2.0, [_trial(1.0, 2.0)])
            full = report_text(store)
            only_lu = report_text(store, kernel="lu")
            assert "cholesky" in full and "cholesky" not in only_lu
            with pytest.raises(ReproError):
                report_text(store, kernel="nope")

    def test_evaluation_count_table_columns(self, tmp_path):
        with build_golden_store(tmp_path / "g.sqlite") as store:
            text = evaluation_count_table(store, "lu", "large")
        lines = text.splitlines()
        ytopt_row = next(l for l in lines if "ytopt" in l)
        # 3 evals, 1 failure, 1 cache hit, 0 pruned, 0 promoted, no backend
        # recorded ("-"), seed 0
        assert ytopt_row.split()[-7:] == ["3", "1", "1", "0", "0", "-", "0"]


def regenerate_golden() -> None:  # pragma: no cover - maintenance helper
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        with build_golden_store(Path(d) / "g.sqlite") as store:
            GOLDEN.write_text(report_text(store))


class TestCompare:
    def _stores(self, tmp_path, candidate_best, candidate_time=45.6):
        base = RunStore(tmp_path / "base.sqlite")
        cand = RunStore(tmp_path / "cand.sqlite")
        _save(base, "lu", "large", "ytopt", 0, 1.0, 45.6, [])
        _save(cand, "lu", "large", "ytopt", 0, candidate_best, candidate_time, [])
        return base, cand

    def test_regression_flagged_at_threshold(self, tmp_path):
        base, cand = self._stores(tmp_path, candidate_best=1.2)
        text, regressed = compare_stores(base, cand, threshold=0.10)
        assert len(regressed) == 1
        assert regressed[0].best_change == pytest.approx(0.2)
        assert "REGRESSION" in text and "+20.0%" in text

    def test_improvement_and_small_drift_pass(self, tmp_path):
        base, cand = self._stores(tmp_path, candidate_best=1.05)
        text, regressed = compare_stores(base, cand, threshold=0.10)
        assert regressed == []
        assert "ok" in text and "REGRESSION" not in text

    def test_process_time_regression_also_flags(self, tmp_path):
        base, cand = self._stores(tmp_path, candidate_best=1.0, candidate_time=60.0)
        _, regressed = compare_stores(base, cand, threshold=0.10)
        assert len(regressed) == 1
        assert regressed[0].time_change == pytest.approx((60.0 - 45.6) / 45.6)

    def test_unmatched_runs_listed_not_flagged(self, tmp_path):
        base, cand = self._stores(tmp_path, candidate_best=1.0)
        _save(base, "cholesky", "large", "ytopt", 0, 1.0, 1.0, [])
        _save(cand, "lu", "large", "AutoTVM-GA", 0, 1.0, 1.0, [])
        text, regressed = compare_stores(base, cand)
        assert regressed == []
        assert "only in baseline: cholesky" in text
        assert "only in candidate: lu:large:AutoTVM-GA" in text

    def test_bad_threshold_rejected(self, tmp_path):
        base, cand = self._stores(tmp_path, candidate_best=1.0)
        with pytest.raises(ReproError, match="threshold"):
            compare_stores(base, cand, threshold=0.0)


class TestEvalsToWithin:
    def test_counts_first_banded_eval_one_based(self):
        traj = [(1.0, 5.0), (2.0, 2.0), (3.0, 1.04), (4.0, 0.9)]
        assert evals_to_within(traj, target=1.0, tolerance=0.05) == 3

    def test_best_so_far_not_instantaneous(self):
        # A later slow eval does not un-hit the band.
        traj = [(1.0, 1.0), (2.0, 50.0)]
        assert evals_to_within(traj, target=1.0) == 1

    def test_never_reaching_returns_none(self):
        assert evals_to_within([(1.0, 9.0), (2.0, 8.0)], target=1.0) is None

    def test_empty_trajectory_never_reaches(self):
        assert evals_to_within([], target=1.0) is None

    def test_zero_tolerance_demands_the_target_itself(self):
        traj = [(1.0, 1.0001), (2.0, 1.0)]
        assert evals_to_within(traj, target=1.0, tolerance=0.0) == 2

    def test_invalid_target_and_tolerance(self):
        with pytest.raises(ReproError, match="target"):
            evals_to_within([(1.0, 1.0)], target=0.0)
        with pytest.raises(ReproError, match="target"):
            evals_to_within([(1.0, 1.0)], target=float("inf"))
        with pytest.raises(ReproError, match="tolerance"):
            evals_to_within([(1.0, 1.0)], target=1.0, tolerance=-0.1)


class TestEvalsToBestTable:
    def test_table_anchors_on_cross_tuner_best(self, tmp_path):
        with build_golden_store(tmp_path / "g.sqlite") as store:
            text = evals_to_best_table(store, "lu", "large")
        lines = text.splitlines()
        # Known best is ytopt's 0.0123; AutoTVM-GA's best 0.0456 is far
        # outside the 5% band -> "never".
        assert "0.0123" in lines[0]
        ytopt_row = next(l for l in lines if l.startswith("ytopt"))
        autotvm_row = next(l for l in lines if l.startswith("AutoTVM-GA"))
        assert ytopt_row.split()[-2] == "3"
        assert autotvm_row.split()[-2] == "never"

    def test_missing_runs_raise(self, tmp_path):
        with RunStore(tmp_path / "r.sqlite") as store:
            with pytest.raises(ReproError, match="no stored runs"):
                evals_to_best_table(store, "lu", "large")

    def test_report_text_unchanged_unless_opted_in(self, tmp_path):
        with build_golden_store(tmp_path / "g.sqlite") as store:
            plain = report_text(store)
            banded = report_text(store, to_best=True)
        assert plain == GOLDEN.read_text()  # default output untouched
        assert "Evals to within" not in plain
        assert "Evals to within" in banded


class TestOverheadBreakdown:
    def test_derived_fallback_from_evaluation_rows(self, tmp_path):
        """Runs without engine-stamped overhead derive the split from the
        stored evaluations and say so in the mode column."""
        from repro.telemetry.report import overhead_breakdown_table

        with build_golden_store(tmp_path / "g.sqlite") as store:
            text = overhead_breakdown_table(store, "lu", "large")
        assert "Overhead breakdown" in text
        ytopt_row = next(l for l in text.splitlines() if "ytopt" in l)
        assert "derived" in ytopt_row

    def test_engine_stamp_round_trips_through_the_store(self, tmp_path):
        """RunFinished.overhead lands in the run metadata and wins over the
        derived fallback, pipeline counters included."""
        from repro.telemetry.report import overhead_breakdown_table

        overhead = {
            "mode": "pipelined",
            "search_seconds": 1.0,
            "compile_seconds": 2.0,
            "measure_seconds": 3.0,
            "wall_seconds": 6.5,
            "spec_hit_rate": 0.75,
        }
        with RunStore(tmp_path / "o.sqlite") as store:
            started = RunStarted(
                run_id=make_run_id("lu", "large", "ytopt", 0),
                kernel="lu", size_name="large", tuner="ytopt", seed=0,
                max_evals=2, metadata={"seed": 0},
            )
            finished = RunFinished(
                run_id=started.run_id, best_runtime=1.0,
                best_config={"P0": 16}, n_evals=2, total_time=6.5,
                overhead=overhead,
            )
            store.save_run(started, finished, [_trial(1.0, 1.0), _trial(1.2, 2.0)])
            run = store.runs(kernel="lu", size_name="large")[0]
            assert run.metadata["overhead_breakdown"] == overhead
            text = overhead_breakdown_table(store, "lu", "large")
        row = next(l for l in text.splitlines() if "ytopt" in l)
        assert "pipelined (hit 75%)" in row
        assert "6.50" in row

    def test_report_text_opt_in(self, tmp_path):
        with build_golden_store(tmp_path / "g.sqlite") as store:
            plain = report_text(store)
            with_overhead = report_text(store, overhead=True)
        assert "Overhead breakdown" not in plain
        assert "Overhead breakdown" in with_overhead
