"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestInfo:
    def test_lists_benchmarks_and_tuners(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "228,614,400" in out
        assert "ytopt" in out and "AutoTVM-GridSearch" in out


class TestList:
    def test_shows_full_registry(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for kernel in ("3mm", "lu", "cholesky", "gemm", "syrk", "trmm", "jacobi2d"):
            assert kernel in out
        for tuner in ("ytopt", "AutoTVM-XGB", "ytopt-gp", "ytopt-tpe"):
            assert tuner in out
        assert "Registered benchmarks (7" in out
        assert "Registered tuners (7" in out

    def test_json_dump(self, capsys):
        import json

        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["benchmarks"]) >= 7
        assert len(payload["tuners"]) >= 7
        kernels = {b["kernel"] for b in payload["benchmarks"]}
        assert {"gemm", "syrk", "trmm", "jacobi2d"} <= kernels


class TestTable1:
    def test_all_match(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert out.count("match") == 6
        assert "MISMATCH" not in out


class TestTune:
    def test_basic_run(self, capsys):
        rc = main(
            ["tune", "--kernel", "lu", "--size", "large", "--tuner", "ytopt",
             "--max-evals", "8", "--seed", "0"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "best" in out and "lu-large" in out

    def test_csv_output(self, tmp_path, capsys):
        csv = tmp_path / "traj.csv"
        rc = main(
            ["tune", "--kernel", "cholesky", "--size", "large",
             "--max-evals", "5", "--csv", str(csv)]
        )
        assert rc == 0
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "eval,elapsed_s,runtime_s"
        assert len(lines) == 6

    def test_xgb_cap_flag(self, capsys):
        rc = main(
            ["tune", "--kernel", "cholesky", "--size", "large",
             "--tuner", "AutoTVM-XGB", "--max-evals", "60", "--no-xgb-cap"]
        )
        assert rc == 0
        assert "60 evals" in capsys.readouterr().out

    def test_bad_kernel_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["tune", "--kernel", "fft", "--size", "large"])


class TestExperiment:
    def test_runs_named_experiment(self, capsys, tmp_path):
        csv = tmp_path / "exp.csv"
        rc = main(["experiment", "lu-large", "--evals", "6", "--csv", str(csv)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figures 4-5" in out
        assert "Minimum runtimes" in out
        assert csv.read_text().startswith("tuner,eval,elapsed_s,runtime_s")

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_custom_registered_pair_with_tuner_subset(self, capsys):
        rc = main(["experiment", "gemm-mini", "--evals", "12",
                   "--tuners", "ytopt-gp,ytopt-tpe,AutoTVM-Random"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "custom pair gemm/mini" in out
        assert "ytopt-gp" in out and "ytopt-tpe" in out
        assert "AutoTVM-GridSearch" not in out  # subset respected

    def test_unknown_tuner_in_subset(self, capsys):
        assert main(["experiment", "gemm-mini", "--tuners", "nosuch"]) == 2
        assert "unknown tuner" in capsys.readouterr().err

    def test_plugin_kernel_via_tune(self, capsys):
        rc = main(["tune", "--kernel", "jacobi2d", "--size", "mini",
                   "--tuner", "ytopt-tpe", "--max-evals", "12"])
        assert rc == 0
        assert "jacobi2d-mini" in capsys.readouterr().out


class TestAblation:
    def test_kappa(self, capsys):
        assert main(["ablation", "kappa", "--evals", "8"]) == 0
        assert "kappa=" in capsys.readouterr().out

    def test_measure(self, capsys):
        assert main(["ablation", "measure", "--evals", "8"]) == 0
        assert "n_parallel" in capsys.readouterr().out


class TestAutoschedule:
    def test_runs_on_3mm(self, capsys):
        rc = main(["autoschedule", "--kernel", "3mm", "--size", "large",
                   "--trials", "10"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sketch parameters" in out
        assert "E.y" in out and "G.x" in out


class TestTelemetryFlags:
    TUNE = ["tune", "--kernel", "lu", "--size", "large", "--tuner", "ytopt",
            "--max-evals", "5", "--seed", "0"]

    def test_db_and_trace_written(self, tmp_path, capsys):
        db, trace = tmp_path / "runs.sqlite", tmp_path / "trace.jsonl"
        rc = main(self.TUNE + ["--db", str(db), "--trace", str(trace)])
        assert rc == 0
        assert db.exists() and trace.exists()
        err = capsys.readouterr().err
        assert "telemetry:" in err  # metrics summary goes to stderr

    def test_json_mode_emits_single_document(self, tmp_path, capsys):
        import json

        rc = main(self.TUNE + ["--json", "--db", str(tmp_path / "r.sqlite")])
        assert rc == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)  # stdout is exactly one JSON document
        assert doc["tuner"] == "ytopt" and doc["n_evals"] == 5
        assert len(doc["trajectory"]) == 5
        assert captured.err == ""  # json mode silences progress too

    def test_quiet_suppresses_progress(self, capsys):
        rc = main(self.TUNE + ["--quiet"])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "best" in captured.out  # the result line itself still prints

    def test_no_telemetry_still_works(self, capsys):
        rc = main(self.TUNE + ["--no-telemetry"])
        assert rc == 0
        assert "best" in capsys.readouterr().out


class TestFidelityFlags:
    def test_prune_and_probe_counts_reach_the_report(self, tmp_path, capsys):
        """Acceptance: `repro report` shows per-run pruned/promoted counts."""
        db = tmp_path / "runs.sqlite"
        rc = main(
            ["tune", "--kernel", "lu", "--size", "large", "--tuner", "ytopt",
             "--max-evals", "20", "--seed", "0", "--repeats", "3",
             "--probe-repeats", "2", "--prune", "--quiet", "--db", str(db)]
        )
        assert rc == 0
        capsys.readouterr()
        assert main(["report", "--db", str(db)]) == 0
        out = capsys.readouterr().out
        table = out[out.index("Evaluations — lu / large"):]
        ytopt_row = next(l for l in table.splitlines() if l.startswith("ytopt"))
        fields = ytopt_row.split()
        # Columns: ... pruned, promoted, backend, seed
        pruned, promoted = int(fields[-4]), int(fields[-3])
        assert pruned > 0 and promoted > 0
        assert fields[-2] == "swing"  # backend tier recorded per trial

    def test_warm_start_flag_round_trips(self, tmp_path, capsys):
        db = tmp_path / "runs.sqlite"
        base = ["tune", "--kernel", "lu", "--size", "large", "--tuner", "ytopt",
                "--max-evals", "6", "--seed", "0", "--quiet"]
        assert main(base + ["--db", str(db)]) == 0
        first = capsys.readouterr().out
        assert main(base + ["--warm-start-db", str(db)]) == 0
        second = capsys.readouterr().out
        # matching budget: the warm-started run replays the stored best
        assert first.split("best")[1] == second.split("best")[1]


class TestReportCompare:
    def _make_store(self, path):
        rc = main(["tune", "--kernel", "lu", "--size", "large", "--tuner",
                   "ytopt", "--max-evals", "5", "--quiet", "--db", str(path)])
        assert rc == 0

    def test_report_regenerates_tables(self, tmp_path, capsys):
        db = tmp_path / "runs.sqlite"
        self._make_store(db)
        capsys.readouterr()
        assert main(["report", "--db", str(db)]) == 0
        out = capsys.readouterr().out
        assert "Minimum runtimes — lu / large" in out
        assert "Autotuning process — lu / large" in out
        assert "Evaluations — lu / large" in out

    def test_report_missing_store_errors(self, tmp_path, capsys):
        rc = main(["report", "--db", str(tmp_path / "empty.sqlite")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_report_mistyped_path_creates_nothing(self, tmp_path, capsys):
        db = tmp_path / "typo" / "runs.sqlite"
        rc = main(["report", "--db", str(db)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: run store not found: {db}\n"
        assert not db.parent.exists()

    def test_compare_mistyped_path_creates_nothing(self, tmp_path, capsys):
        base, cand = tmp_path / "a" / "x.sqlite", tmp_path / "b" / "y.sqlite"
        rc = main(["compare", str(base), str(cand)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == f"error: run store not found: {base}\n"
        assert "matched" not in captured.out
        assert not base.parent.exists() and not cand.parent.exists()

    def test_compare_flags_regression_and_exits_1(self, tmp_path, capsys):
        import shutil
        import sqlite3

        base = tmp_path / "base.sqlite"
        self._make_store(base)
        cand = tmp_path / "cand.sqlite"
        shutil.copy(base, cand)
        conn = sqlite3.connect(cand)
        conn.execute("UPDATE runs SET best_runtime = best_runtime * 1.2")
        conn.commit()
        conn.close()
        capsys.readouterr()

        rc = main(["compare", str(base), str(cand), "--threshold", "0.10"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "REGRESSION" in captured.out
        assert "regression(s) at the 10% threshold" in captured.err

    def test_compare_identical_stores_passes(self, tmp_path, capsys):
        import shutil

        base = tmp_path / "base.sqlite"
        self._make_store(base)
        cand = tmp_path / "cand.sqlite"
        shutil.copy(base, cand)
        capsys.readouterr()

        rc = main(["compare", str(base), str(cand)])
        assert rc == 0
        assert "0 regressed" in capsys.readouterr().out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestSpecFields:
    """Each knob flag parses into the JobSpec field of the same name."""

    TARGET = ["--kernel", "3mm", "--size", "mini", "--tuner", "ytopt-gp"]
    #: Every knob flag repro experiment shares with tune, at a non-default value.
    SHARED = ["--seed", "3", "--jobs", "2", "--timeout", "0.5",
              "--repeats", "4", "--probe-repeats", "2", "--promote-margin", "0.3",
              "--prune", "--prune-threshold", "1.5",
              "--warm-start-db", "warm.sqlite", "--transfer-db", "corpus.sqlite",
              "--transfer-bias", "0.25"]
    LOOP = ["--pipeline", "--compile-jobs", "2", "--refit-every", "1",
            "--label", "abc"]

    @staticmethod
    def _fields(argv):
        from repro.cli import _spec_fields, build_parser

        return _spec_fields(build_parser().parse_args(argv))

    def test_every_command_gives_the_same_spec(self):
        from dataclasses import fields

        from repro.service.jobs import JobSpec

        tune = self._fields(
            ["tune", *self.TARGET, "--max-evals", "7", *self.SHARED, *self.LOOP]
        )
        submit = self._fields(
            ["submit", "--root", "r", *self.TARGET, "--max-evals", "7",
             *self.SHARED, *self.LOOP]
        )
        experiment = self._fields(
            ["experiment", "3mm-mini", "--evals", "7", *self.SHARED]
        )
        assert submit == tune
        # Every field but the test-only fault directive has a tune flag,
        # and each flag above moved its field off the default.
        knobs = [f for f in fields(JobSpec) if f.name != "fault"]
        assert list(tune) == [f.name for f in knobs]
        assert all(tune[f.name] != f.default for f in knobs)
        JobSpec(**tune)
        assert experiment == {k: tune[k] for k in experiment}
        assert set(tune) - set(experiment) == {
            "kernel", "size", "tuner", "label", "compile_jobs", "refit_every",
        }

    @pytest.mark.parametrize("command", ["tune", "submit"])
    def test_compile_jobs_implies_pipeline(self, command):
        """``--compile-jobs`` sets what ``--pipeline`` sets (the geometric
        refit schedule) unless ``--refit-every`` is given."""
        target = ["--kernel", "lu", "--size", "large"]
        assert self._fields([command, *target])["refit_every"] is None
        spec = self._fields([command, *target, "--compile-jobs", "2"])
        assert spec == self._fields([command, *target, "--compile-jobs", "2", "--pipeline"])
        assert spec["refit_every"] == 0 and spec["compile_jobs"] == 2

    #: Flags -> the refit_every they set: ``--pipeline`` and
    #: ``--compile-jobs`` mean the geometric schedule (0) unless
    #: ``--refit-every`` is given, wherever it stands.
    REFIT = {
        "none": ([], None),
        "pipeline": (["--pipeline"], 0),
        "compile_jobs": (["--compile-jobs", "2"], 0),
        "pipeline_refit_1": (["--pipeline", "--refit-every", "1"], 1),
        "refit_1_pipeline": (["--refit-every", "1", "--pipeline"], 1),
        "compile_jobs_refit_3": (["--compile-jobs", "2", "--refit-every", "3"], 3),
    }

    @pytest.mark.parametrize("case", list(REFIT))
    @pytest.mark.parametrize("command", ["tune", "submit"])
    def test_pipeline_flags_set_refit_every(self, command, case):
        flags, refit_every = self.REFIT[case]
        spec = self._fields([command, "--kernel", "lu", "--size", "large", *flags])
        assert spec["refit_every"] == refit_every
        assert "pipeline" not in spec


class TestTransfer:
    def _corpus(self, db, capsys):
        for kernel in ("lu", "cholesky"):
            assert main(["tune", "--kernel", kernel, "--size", "large",
                         "--tuner", "ytopt", "--max-evals", "6", "--seed", "1",
                         "--quiet", "--db", str(db)]) == 0
        capsys.readouterr()

    def test_inspect_then_fit_then_seeded_tune(self, tmp_path, capsys):
        import json

        db = tmp_path / "runs.sqlite"
        self._corpus(db, capsys)

        assert main(["transfer", "inspect", "--db", str(db)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_tasks"] == 2 and summary["n_records"] == 12

        assert main(["transfer", "fit", "--db", str(db),
                     "--exclude", "3mm/large"]) == 0
        fitted = json.loads(capsys.readouterr().out)
        assert fitted["meta"]["excluded"] == "3mm/large"
        from pathlib import Path

        assert Path(fitted["model"]).exists()

        # Transfer-seeded tune of a task the corpus never saw.
        assert main(["tune", "--kernel", "3mm", "--size", "large",
                     "--tuner", "ytopt", "--max-evals", "4", "--seed", "0",
                     "--quiet", "--transfer-db", str(db),
                     "--label", "ytopt-transfer"]) == 0
        assert "best" in capsys.readouterr().out

    def test_bad_exclude_format_rejected(self, tmp_path, capsys):
        db = tmp_path / "runs.sqlite"
        self._corpus(db, capsys)
        assert main(["transfer", "fit", "--db", str(db),
                     "--exclude", "nonsense"]) == 2

    def test_transfer_db_requires_ytopt_tuner(self, tmp_path, capsys):
        db = tmp_path / "runs.sqlite"
        self._corpus(db, capsys)
        rc = main(["tune", "--kernel", "lu", "--size", "large",
                   "--tuner", "AutoTVM-GA", "--max-evals", "4", "--quiet",
                   "--transfer-db", str(db)])
        assert rc != 0
