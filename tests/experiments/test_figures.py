"""Tests for the figure/table formatting helpers."""

import pytest

from repro.experiments import (
    EXPERIMENT_FIGURES,
    ascii_trajectory,
    format_tensor_size,
    min_runtime_table,
    process_summary_table,
    run_experiment,
    trajectory_csv,
)


@pytest.fixture(scope="module")
def result():
    return run_experiment(
        "lu", "large", tuners=("ytopt", "AutoTVM-Random"), max_evals=10, seed=0
    )


class TestFormatTensorSize:
    def test_solver_notation(self):
        assert format_tensor_size("lu", {"P0": 400, "P1": 50}) == "400x50"

    def test_3mm_notation(self):
        cfg = {"P0": 1000, "P1": 32, "P2": 600, "P3": 2, "P4": 15, "P5": 40}
        assert format_tensor_size("3mm", cfg) == "(1000x32, 600x2, 15x40)"

    def test_unknown_kernel_fallback(self):
        assert "Pa=1" in format_tensor_size("other", {"Pa": 1})


class TestTables:
    def test_min_runtime_table_contains_all_tuners(self, result):
        out = min_runtime_table(result)
        assert "ytopt" in out and "AutoTVM-Random" in out
        assert "tensor size" in out

    def test_min_runtime_sorted_ascending(self, result):
        out = min_runtime_table(result)
        lines = [l for l in out.splitlines()[3:] if l.strip()]
        values = [float(l.split()[1]) for l in lines]
        assert values == sorted(values)

    def test_process_summary_columns(self, result):
        out = process_summary_table(result)
        assert "process time" in out
        assert "median rt" in out

    def test_trajectory_csv_rows(self, result):
        csv = trajectory_csv(result)
        lines = csv.strip().splitlines()
        assert lines[0] == "tuner,eval,elapsed_s,runtime_s"
        n_points = sum(len(r.trajectory) for r in result.runs.values())
        assert len(lines) == 1 + n_points


class TestFailedTrials:
    """A failed trial reads as a failure for every tuner, never as a runtime
    (ytopt's used to surface as a 1e10-second one)."""

    @pytest.fixture(scope="class")
    def failing(self):
        # A 4 s timeout kills the slowest lu/large kernels.
        return run_experiment(
            "lu", "large", tuners=("ytopt", "AutoTVM-Random"), max_evals=30,
            seed=0, timeout=4.0,
        )

    def test_every_tuner_records_failures_as_inf(self, failing):
        for run in failing.runs.values():
            runtimes = [rt for _, rt in run.trajectory]
            assert float("inf") in runtimes, run.tuner
            assert max(rt for rt in runtimes if rt != float("inf")) < 1e9

    def test_process_table_ignores_failures(self, failing):
        rows = process_summary_table(failing).splitlines()[3:]
        ytopt = next(r for r in rows if r.startswith("ytopt"))
        assert float(ytopt.split()[-1]) < 1e9  # max rt

    def test_trajectory_csv_marks_failures(self, failing):
        lines = trajectory_csv(failing).strip().splitlines()[1:]
        for tuner in ("ytopt", "AutoTVM-Random"):
            runtimes = [l.split(",")[3] for l in lines if l.startswith(tuner + ",")]
            assert "failed" in runtimes, tuner
            assert all(rt == "failed" or float(rt) < 1e9 for rt in runtimes)


class TestAsciiTrajectory:
    def test_renders_grid(self, result):
        run = result.runs["ytopt"]
        out = ascii_trajectory(run, width=40, height=8)
        assert "ytopt" in out
        assert "*" in out

    def test_empty_run_handled(self):
        from repro.experiments.runner import TunerRun

        empty = TunerRun(
            tuner="x", kernel="lu", size_name="large",
            best_config={}, best_runtime=0.0, n_evals=0, total_time=0.0,
            trajectory=[],
        )
        assert "no successful evaluations" in ascii_trajectory(empty)


class TestFigureIndex:
    def test_every_paper_figure_mapped(self):
        assert set(EXPERIMENT_FIGURES) == {
            "lu-large",
            "lu-extralarge",
            "cholesky-large",
            "cholesky-extralarge",
            "3mm-extralarge",
        }

    def test_mapping_targets_valid_benchmarks(self):
        from repro.kernels import get_benchmark

        for kernel, size, _figs in EXPERIMENT_FIGURES.values():
            assert get_benchmark(kernel, size) is not None
