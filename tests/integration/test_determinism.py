"""Determinism battery: same seed ⇒ byte-identical runs, everywhere.

Every tuner under the simulated Swing backend is a pure function of its seed:
re-running with the same seed must reproduce the trajectory, the best
configuration, the performance database contents, and the telemetry stream
exactly — with and without the multi-fidelity options (``probe_repeats``,
``prune``), and regardless of whether telemetry is attached.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.common.timing import VirtualClock
from repro.core import AutotuneConfig, BayesianAutotuner
from repro.experiments import run_tuner
from repro.experiments.runner import ALL_TUNERS
from repro.kernels import get_benchmark
from repro.service import JobSpec, TuningSession
from repro.swing import SwingEvaluator, SwingPerformanceModel
from repro.telemetry import (
    RecordingSink,
    RunStore,
    StoreSink,
    Telemetry,
    telemetry_session,
)

KERNELS = [("lu", "large"), ("cholesky", "large")]


def _run(tuner, kernel, size, seed=3, max_evals=8, **kw):
    return run_tuner(get_benchmark(kernel, size), tuner, max_evals=max_evals, seed=seed, **kw)


def _assert_identical(a, b):
    assert a.trajectory == b.trajectory  # exact float equality, element-wise
    assert a.best_config == b.best_config
    assert a.best_runtime == b.best_runtime
    assert a.total_time == b.total_time
    assert a.n_evals == b.n_evals


class TestSameSeedSameRun:
    @pytest.mark.parametrize("kernel,size", KERNELS)
    @pytest.mark.parametrize("tuner", ALL_TUNERS)
    def test_trajectory_reproduced(self, tuner, kernel, size):
        _assert_identical(_run(tuner, kernel, size), _run(tuner, kernel, size))

    def test_different_seeds_differ(self):
        a = _run("ytopt", "lu", "large", seed=0, max_evals=10)
        b = _run("ytopt", "lu", "large", seed=1, max_evals=10)
        assert a.trajectory != b.trajectory


class TestFidelityOptionsDeterministic:
    @pytest.mark.parametrize("tuner", ["ytopt", "AutoTVM-GA"])
    def test_probe_repeats_reproduced(self, tuner):
        kw = dict(repeats=3, probe_repeats=1, max_evals=8)
        _assert_identical(
            _run(tuner, "lu", "large", **kw), _run(tuner, "lu", "large", **kw)
        )

    @pytest.mark.parametrize(
        "tuner,digest",
        [
            ("ytopt", "403bf75bd44e719b13d1211b4f4e120edbcefd0ca0e72abe4374bb0d5b5778b4"),
            ("AutoTVM-GA", "f0eedf545704f3a43150e90b2106d9d14b54e563f5a5f87f6f1b60c5fc8d889f"),
        ],
    )
    def test_probed_waves_pinned(self, tuner, digest):
        """Probe/promote under jobs=4: each wave of the session's batch is
        charged its slowest probe+promote total on the virtual clock."""
        run = TuningSession(
            JobSpec(kernel="lu", size="large", tuner=tuner, seed=0, jobs=4,
                    repeats=3, probe_repeats=2, max_evals=24)
        ).run()
        payload = json.dumps(run.to_payload(), sort_keys=True)
        assert hashlib.sha256(payload.encode()).hexdigest() == digest

    def test_prune_reproduced(self):
        kw = dict(prune=True, max_evals=25)
        _assert_identical(
            _run("ytopt", "lu", "large", **kw), _run("ytopt", "lu", "large", **kw)
        )

    def test_prune_and_probe_together_reproduced(self):
        kw = dict(prune=True, repeats=3, probe_repeats=1, max_evals=25)
        _assert_identical(
            _run("ytopt", "cholesky", "large", **kw),
            _run("ytopt", "cholesky", "large", **kw),
        )


class TestDatabaseByteIdentical:
    def _csv(self, tmp_path, name):
        bench = get_benchmark("lu", "large")
        evaluator = SwingEvaluator(
            bench.profile,
            model=SwingPerformanceModel(seed_tag="swing-v1-seed0"),
            clock=VirtualClock(),
            number=1,
        )
        bo = BayesianAutotuner(
            bench.config_space(seed=0),
            evaluator,
            config=AutotuneConfig(max_evals=8, seed=0),
            name=bench.name,
        )
        path = tmp_path / name
        bo.run().database.to_csv(path)
        return path

    def test_ytopt_database_dump_identical(self, tmp_path):
        a = self._csv(tmp_path, "a.csv")
        b = self._csv(tmp_path, "b.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_store_rows_identical_across_reruns(self, tmp_path):
        """Two traced runs persist byte-for-byte the same evaluation rows."""

        def traced(name):
            db = tmp_path / name
            tel = Telemetry(sinks=[StoreSink(RunStore(db), own_store=True)])
            with telemetry_session(tel):
                _run("ytopt", "lu", "large", prune=True, max_evals=20)
            tel.close()
            with RunStore(db) as store:
                (run,) = store.runs()
                return [
                    (
                        e.index,
                        tuple(sorted(e.config.items())),
                        e.runtime,
                        e.compile_time,
                        e.elapsed,
                        e.error,
                        e.cache_hit,
                        e.fidelity,
                    )
                    for e in store.evaluations(run.run_id)
                ]

        assert traced("a.sqlite") == traced("b.sqlite")


class TestTelemetryDoesNotPerturbTheSearch:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(),
            dict(prune=True, max_evals=20),
            dict(repeats=3, probe_repeats=1),
        ],
        ids=["plain", "prune", "probe"],
    )
    def test_on_vs_off_identical(self, tmp_path, kw):
        plain = _run("ytopt", "lu", "large", **kw)
        sink = RecordingSink()
        tel = Telemetry(
            sinks=[sink, StoreSink(RunStore(tmp_path / "r.sqlite"), own_store=True)]
        )
        with telemetry_session(tel):
            traced = _run("ytopt", "lu", "large", **kw)
        tel.close()
        _assert_identical(plain, traced)
        assert sink.events  # telemetry actually ran

    def test_event_stream_reproduced(self):
        def capture():
            sink = RecordingSink()
            tel = Telemetry(sinks=[sink])
            with telemetry_session(tel):
                _run("ytopt", "lu", "large", prune=True, repeats=3,
                     probe_repeats=1, max_evals=20)
            tel.close()
            return [
                (e.kind, getattr(e, "runtime", None), getattr(e, "elapsed", None))
                for e in sink.events
            ]

        assert capture() == capture()
