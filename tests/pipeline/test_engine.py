"""AMBS.run end to end on a real-clock evaluator, building ahead or not.

Uses a fake native-style evaluator (deterministic costs, a recording
``precompile``) so the full compile-ahead path runs — build pool, side-thread
speculation, confirm fast path, ordered commits — without a C toolchain, and
the same evaluator declaring Python builds as the reference that builds
nothing ahead.
"""

import dataclasses
import threading
import time

import pytest

from repro.configspace import ConfigurationSpace, OrdinalHyperparameter
from repro.telemetry import RecordingSink, Telemetry, telemetry_session
from repro.ytopt.optimizer import Optimizer, RefitSchedule, refit_policy
from repro.ytopt.problem import TuningProblem
from repro.ytopt.search import AMBS


def _space(seed):
    space = ConfigurationSpace(seed=seed)
    for name in ("P0", "P1"):
        space.add_hyperparameter(OrdinalHyperparameter(name, tuple(range(2, 26, 2))))
    return space


class FakeNativeEvaluator:
    """Real-clock evaluator: deterministic cost, recording precompile, and
    the names of the threads alive whenever ``evaluate`` runs. It declares
    native-tier builds, as a ``LocalEvaluator(backend="native")`` does."""

    builds_native = True

    def __init__(self):
        self._start = time.perf_counter()
        self._lock = threading.Lock()
        self.precompiled = []
        self.threads_seen = set()

    def elapsed(self):
        return time.perf_counter() - self._start

    def _cost(self, cfg):
        return 1.0 + (cfg["P0"] - 12) ** 2 + 2 * (cfg["P1"] - 8) ** 2

    def precompile(self, params):
        with self._lock:
            self.precompiled.append(tuple(sorted(
                (k, int(v)) for k, v in params.items()
            )))
        return True

    def evaluate(self, params):
        from repro.runtime.measure import MeasureResult

        self.threads_seen.update(t.name for t in threading.enumerate())
        cfg = {k: int(v) for k, v in params.items()}
        return MeasureResult(
            config=cfg,
            costs=(self._cost(cfg),),
            compile_time=0.0,
            timestamp=self.elapsed(),
        )


class FakePythonEvaluator(FakeNativeEvaluator):
    """The same costs with builds that hold the GIL, as the tensor tier's
    do: no loop builds ahead of it, whatever ``compile_jobs`` says."""

    builds_native = False


def _run(evals, compile_jobs=None, seed=0, refit_every=None, dense_until=None,
         batch_size=1, native=True):
    """One AMBS run; ``dense_until`` refits on a geometric schedule that
    dense, else the optimizer takes ``refit_policy(refit_every)``."""
    evaluator = FakeNativeEvaluator() if native else FakePythonEvaluator()
    space = _space(seed)
    if dense_until is not None:
        interval, schedule = 1, RefitSchedule(dense_until=dense_until)
    else:
        interval, schedule = refit_policy(refit_every)
    optimizer = Optimizer(
        space, seed=seed, refit_interval=interval, refit_schedule=schedule
    )
    problem = TuningProblem(space, evaluator, name="fake")
    search = AMBS(
        problem,
        optimizer,
        max_evals=evals,
        batch_size=batch_size,
        compile_jobs=compile_jobs,
    )
    return search.run(), evaluator


def _rows(result):
    return [(r.config, r.runtime) for r in result.database.records()]


def _loop_threads(names):
    return {n for n in names if n.startswith(("repro-build", "repro-spec"))}


class TestPipelinedEngine:
    def test_speculation_hits_and_each_config_built_once(self):
        result, evaluator = _run(40, compile_jobs=2, dense_until=8)
        assert result.n_evals == 40
        # Compile-ahead fired and the real waves picked the builds up.
        assert result.overhead["spec_hit_rate"] > 0.0
        # Dedup: no configuration was ever built twice (spec-hit reuse).
        assert len(evaluator.precompiled) == len(set(evaluator.precompiled))

    def test_matches_serial_twin_on_deterministic_costs(self):
        """Same refit schedule, same seed, deterministic costs: the loop
        that builds ahead (speculation, side thread, build pool and all)
        commits the same configurations and runtimes as one that cannot."""
        pipelined, _ = _run(38, compile_jobs=2, refit_every=0)
        serial, evaluator = _run(38, compile_jobs=2, refit_every=0, native=False)
        assert evaluator.precompiled == []
        assert _rows(pipelined) == _rows(serial)

    def test_speculative_misses_never_told(self):
        result, _ = _run(30, compile_jobs=2, dense_until=8)
        assert len(result.database.records()) == 30

    def test_refit_schedule_reduces_fits(self):
        pipelined, _ = _run(40, dense_until=8)
        # Refitting every observation fits on every model-phase ask (evals -
        # initial design); the geometric schedule must do strictly fewer,
        # and every skip is accounted for.
        legacy_fits = 40 - 10
        assert pipelined.overhead["refits"] < legacy_fits
        assert pipelined.overhead["refits_skipped"] > 0
        assert (
            pipelined.overhead["refits"] + pipelined.overhead["refits_skipped"]
            == legacy_fits
        )


class TestBuildAheadCommitsTheSameRows:
    """Previews (a refit is due before every ask that refits each
    observation), confirmed speculation and the at-most-once build record
    change no committed row: one and two compile jobs commit what a loop
    that builds nothing ahead commits, for single asks and constant-liar
    waves, across the random -> model boundary."""

    @pytest.mark.parametrize("refit_every", [1, 0])
    @pytest.mark.parametrize("batch_size", [1, 2, 3, 4])
    def test_two_jobs_commit_what_one_job_commits(self, batch_size, refit_every):
        for seed in range(4):
            ref, ref_ev = _run(
                60, seed=seed, refit_every=refit_every, batch_size=batch_size,
                native=False,
            )
            assert ref_ev.precompiled == []
            for jobs in (1, 2):
                run, ev = _run(
                    60, compile_jobs=jobs, seed=seed, refit_every=refit_every,
                    batch_size=batch_size,
                )
                # One job builds ahead only on the geometric schedule.
                assert bool(ev.precompiled) == (jobs > 1 or refit_every == 0)
                assert len(ev.precompiled) == len(set(ev.precompiled))
                assert _rows(run) == _rows(ref), (seed, jobs)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_previews_need_two_jobs(self, jobs):
        """On one job a missed preview would queue ahead of the real build:
        the loop asks for none, and builds ahead only what it can confirm."""
        calls = []

        class Spy(Optimizer):
            def speculate(self, *args, **kw):
                calls.append(kw["previews"])
                return super().speculate(*args, **kw)

        space = _space(0)
        evaluator = FakeNativeEvaluator()
        AMBS(
            TuningProblem(space, evaluator, name="fake"),
            Spy(space, seed=0, refit_schedule=RefitSchedule()),
            max_evals=40,
            compile_jobs=jobs,
        ).run()
        assert calls and set(calls) == {jobs > 1}
        assert evaluator.precompiled


class TestTensorTierBuildsNothingAhead:
    def test_default_loop_starts_no_loop_threads(self):
        """Tensor-tier builds hold the GIL: no pool, no speculation thread,
        whatever ``compile_jobs`` says."""
        from repro.kernels.extra import gemm_tuned
        from repro.runtime.measure import LocalEvaluator

        seen = set()

        class Recording(LocalEvaluator):
            def evaluate(self, params):
                seen.update(t.name for t in threading.enumerate())
                return super().evaluate(params)

        space = ConfigurationSpace(seed=0)
        for name in ("P0", "P1"):
            space.add_hyperparameter(OrdinalHyperparameter(name, (1, 2, 4, 8)))
        evaluator = Recording(lambda p: gemm_tuned(8, 8, 8, p), backend="tensor")
        problem = TuningProblem(space, evaluator, name="gemm")
        result = AMBS(
            problem, Optimizer(space, seed=0), max_evals=14, compile_jobs=2
        ).run()
        assert result.n_evals == 14
        assert seen and _loop_threads(seen) == set()
        assert "compile_jobs" not in result.overhead


class TestSerialStaysSerial:
    """A loop that refits every observation builds ahead only with two or
    more compile jobs, and then commits exactly what it commits with one."""

    def _traced(self, compile_jobs=2, **kw):
        sink = RecordingSink()
        tel = Telemetry(sinks=[sink])
        with telemetry_session(tel):
            result, evaluator = _run(24, compile_jobs=compile_jobs, **kw)
        tel.close()
        spans = {e.name for e in sink.events if e.kind == "span_closed"}
        return result, evaluator, sink.kinds(), spans

    def test_serial_loop_builds_nothing_ahead(self):
        result, evaluator, kinds, spans = self._traced(compile_jobs=1)
        assert evaluator.precompiled == []
        assert _loop_threads(evaluator.threads_seen) == set()
        assert "pipeline_stats" not in kinds
        assert "pipeline_wait" not in spans
        assert "acquisition" in spans and "measure" in spans
        assert result.overhead["mode"] == "serial"
        assert set(result.overhead) == {
            "mode", "search_seconds", "compile_seconds", "measure_seconds",
            "wall_seconds",
        }

    def test_serial_loop_builds_ahead_with_two_jobs(self):
        """The same loop at two compile jobs: build pool, previews on the
        side thread, the same committed rows, each config built once; its
        breakdown reads ``pipelined``, as every run on a pool does."""
        one, _, _, _ = self._traced(compile_jobs=1)
        result, evaluator, kinds, spans = self._traced(compile_jobs=2)
        assert evaluator.precompiled
        assert len(evaluator.precompiled) == len(set(evaluator.precompiled))
        assert {n.split("_")[0] for n in _loop_threads(evaluator.threads_seen)} == {
            "repro-build", "repro-spec",
        }
        assert "pipeline_stats" in kinds
        assert "pipeline_wait" in spans
        assert result.overhead["mode"] == "pipelined"
        assert result.overhead["compile_jobs"] == 2.0
        assert _rows(result) == _rows(one)

    def test_pipelined_twin_does_build_ahead(self):
        """The same probes see a one-job pool under the geometric schedule,
        so the serial assertions above cannot pass vacuously."""
        result, evaluator, kinds, spans = self._traced(compile_jobs=1, dense_until=8)
        assert evaluator.precompiled
        assert {n.split("_")[0] for n in _loop_threads(evaluator.threads_seen)} == {
            "repro-build", "repro-spec",
        }
        assert "pipeline_stats" in kinds
        assert "pipeline_wait" in spans
        assert result.overhead["mode"] == "pipelined"


def _has_cc():
    from repro.common.errors import ReproError
    from repro.tir.codegen_c import find_toolchain

    try:
        find_toolchain()
    except ReproError:
        return False
    return True


@pytest.mark.skipif(not _has_cc(), reason="no C toolchain")
class TestPoolBuildEvents:
    """A build-pool build records its telemetry events and the loop emits
    them when it takes the module: a two-job native run reports the build
    events a one-job run reports, in the same order."""

    @pytest.fixture
    def native_dir(self, monkeypatch, tmp_path):
        from repro.tir.codegen_c import reset_native_runtime

        monkeypatch.setenv("REPRO_NATIVE_DIR", str(tmp_path))
        reset_native_runtime()
        yield tmp_path
        reset_native_runtime()

    @staticmethod
    def _builder(params):
        import repro.te as te

        a = te.placeholder((16,), name="A", dtype="float64")
        out = te.compute(
            (16,), lambda i: a[i] * float(params["P1"]) + float(params["P0"]), name="B"
        )
        return te.create_schedule(out.op), [a, out]

    def _events(self, compile_jobs):
        """Build events of one native run with deterministic costs, on an
        empty in-process entry cache."""
        from repro.runtime.measure import LocalEvaluator
        from repro.tir.codegen_c import reset_native_runtime

        class Deterministic(LocalEvaluator):
            def evaluate(self, params):
                result = super().evaluate(params)
                cfg = result.config
                cost = 1.0 + (cfg["P0"] - 5) ** 2 + (cfg["P1"] - 3) ** 2
                return dataclasses.replace(result, costs=(cost,))

        reset_native_runtime()
        space = ConfigurationSpace(seed=0)
        space.add_hyperparameter(OrdinalHyperparameter("P0", tuple(range(1, 9))))
        space.add_hyperparameter(OrdinalHyperparameter("P1", tuple(range(1, 7))))
        evaluator = Deterministic(self._builder, backend="native")
        sink = RecordingSink()
        tel = Telemetry(sinks=[sink])
        with telemetry_session(tel):
            result = AMBS(
                TuningProblem(space, evaluator, name="axpb"),
                Optimizer(space, seed=0),
                max_evals=16,
                compile_jobs=compile_jobs,
            ).run()
        tel.close()
        assert result.n_evals == 16
        assert ("compile_jobs" in result.overhead) == (compile_jobs > 1)
        build_kinds = ("cache_hit", "cache_miss", "backend_selected", "native_disabled")
        return [
            (e.kind, getattr(e, "key", None), getattr(e, "selected", None))
            for e in sink.events
            if e.kind in build_kinds
        ]

    def test_two_jobs_emit_the_build_events_of_one_job(self, native_dir):
        one = self._events(1)
        two = self._events(2)
        assert [k for k, _, _ in one].count("cache_miss") == 16
        assert [k for k, _, _ in one].count("backend_selected") == 16
        assert two == one

    def test_native_disabled_on_a_pool_thread_reaches_the_bus(
        self, native_dir, monkeypatch
    ):
        """A C compiler that answers ``--version`` but builds nothing turns
        the tier off in the first build, on a pool thread at two jobs."""
        from repro.tir.codegen_c import find_toolchain

        fake = native_dir / "brokencc"
        fake.write_text(
            "#!/bin/sh\n"
            f'if [ "$1" = "--version" ]; then exec "{find_toolchain().path}" "$@"; fi\n'
            "exit 1\n"
        )
        fake.chmod(0o755)
        monkeypatch.setenv("REPRO_CC", str(fake))
        for jobs in (1, 2):
            with pytest.warns(RuntimeWarning, match="native backend disabled"):
                events = self._events(jobs)
            kinds = [k for k, _, _ in events]
            assert kinds.count("native_disabled") == 1
            assert kinds.count("backend_selected") == 16
            assert {s for k, _, s in events if k == "backend_selected"} == {"tensor"}
