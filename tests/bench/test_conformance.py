"""The cross-product conformance battery, run as tier-1 tests.

Every registered benchmark × every registered tuner runs twice on the quick
preset (mini size, 12 evaluations, seed 0) through the full service path; the
battery asserts trajectory determinism, exact budget accounting (pruned and
probe rows count), space-hash stability, and byte-stable report regeneration.
"""

import collections

import pytest

from repro.bench import benchmark_names, tuner_names
from repro.bench.conformance import (
    QUICK,
    ConformancePreset,
    battery_pairs,
    battery_report,
    run_battery,
    run_pair,
    trajectory_json,
)
from repro.configspace.space import space_hash
from repro.kernels import get_benchmark
from repro.telemetry import RunStore


@pytest.fixture(scope="module")
def battery_runs():
    """One battery sweep, shared by the module's assertions."""
    return run_battery(QUICK)


class TestBatteryGrid:
    def test_grid_is_the_full_cross_product(self):
        pairs = battery_pairs()
        kernels = benchmark_names()
        tuners = tuner_names()
        assert len(kernels) >= 7 and len(tuners) >= 7
        assert len(pairs) == len(kernels) * len(tuners)
        assert set(pairs) == {(k, t) for k in kernels for t in tuners}

    def test_every_pair_completes_on_budget(self, battery_runs):
        assert len(battery_runs) == len(battery_pairs())
        for run in battery_runs:
            assert run.n_evals == QUICK.max_evals, f"{run.kernel}/{run.tuner}"
            assert len(run.trajectory) == QUICK.max_evals
            assert run.best_runtime > 0
            assert run.best_config  # a real configuration, not an empty dict

    def test_seed0_trajectories_byte_identical_across_runs(self, battery_runs):
        second = run_battery(QUICK)
        for a, b in zip(battery_runs, second):
            assert trajectory_json(a) == trajectory_json(b), (
                f"{a.kernel}/{a.tuner}: seed-0 rerun diverged"
            )

    def test_space_hash_stable_across_runs_and_seeds(self):
        for kernel in benchmark_names():
            hashes = {
                space_hash(get_benchmark(kernel, QUICK.size).config_space(seed=s))
                for s in (0, 1, 1234)
            }
            assert len(hashes) == 1, f"{kernel}: space hash depends on the seed"


class TestBudgetAccounting:
    def test_pruned_rows_count_against_the_budget(self, tmp_path):
        preset = ConformancePreset(max_evals=30, prune=True, prune_threshold=1.0)
        store_path = tmp_path / "prune.db"
        run = run_pair("3mm", "ytopt", preset, store_path=str(store_path))
        with RunStore(store_path) as store:
            rows = store.evaluations(store.runs()[0].run_id)
        fidelity = collections.Counter(r.fidelity for r in rows)
        assert fidelity["pruned"] > 0, "aggressive pruning never fired"
        assert run.n_evals == preset.max_evals
        assert len(rows) == preset.max_evals  # pruned rows are charged rows

    def test_probe_rows_count_against_the_budget(self, tmp_path):
        preset = ConformancePreset(max_evals=14, repeats=3, probe_repeats=1)
        store_path = tmp_path / "probe.db"
        run = run_pair("3mm", "ytopt", preset, store_path=str(store_path))
        with RunStore(store_path) as store:
            rows = store.evaluations(store.runs()[0].run_id)
        fidelity = collections.Counter(r.fidelity for r in rows)
        assert fidelity["probe"] > 0
        assert fidelity["probe"] + fidelity["promoted"] + fidelity["full"] == (
            preset.max_evals
        )
        assert run.n_evals == preset.max_evals
        assert all(r.low_fidelity for r in rows if r.fidelity == "probe")


class TestReportRegeneration:
    def test_battery_report_is_pure(self, battery_runs):
        assert battery_report(battery_runs) == battery_report(battery_runs)
        report = battery_report(battery_runs, QUICK)
        n = len(battery_runs)
        assert f"{n} runs over" in report
        for run in battery_runs:
            assert f"| {run.kernel} | {run.tuner} |" in report

    def test_store_tables_regenerate_byte_identically(self, tmp_path):
        from repro.telemetry.report import report_text

        pairs = [("gemm", "ytopt"), ("gemm", "ytopt-gp"), ("gemm", "ytopt-tpe")]
        run_battery(QUICK, store_dir=tmp_path / "a", pairs=pairs)
        run_battery(QUICK, store_dir=tmp_path / "b", pairs=pairs)
        texts = []
        for d in ("a", "b"):
            parts = []
            for kernel, tuner in pairs:
                with RunStore(tmp_path / d / f"{kernel}-{tuner}.db") as store:
                    parts.append(report_text(store))
            texts.append("\n".join(parts))
        # Same preset, same seed -> the stored runs regenerate the same tables.
        assert texts[0] == texts[1]

    def test_cli_entry_writes_the_report_artifact(self, tmp_path):
        from repro.bench.conformance import main

        report_path = tmp_path / "report.md"
        rc = main([
            "--max-evals", "11", "--report", str(report_path),
            "--store-dir", str(tmp_path / "shards"),
        ])
        assert rc == 0
        text = report_path.read_text()
        assert "max_evals=11" in text
        n_pairs = len(battery_pairs())
        assert f"{n_pairs} runs over" in text
        assert len(list((tmp_path / "shards").glob("*.db"))) == n_pairs
