"""AMBS.run end to end on a real-clock evaluator, pipelined and serial.

Uses a fake native-style evaluator (deterministic costs, a recording
``precompile``) so the full pipelined path runs — build pool, side-thread
speculation, confirm fast path, ordered commits — without a C toolchain,
and so the serial path can be checked to touch none of it.
"""

import threading
import time

from repro.configspace import ConfigurationSpace, OrdinalHyperparameter
from repro.telemetry import RecordingSink, Telemetry, telemetry_session
from repro.ytopt.optimizer import Optimizer, RefitSchedule
from repro.ytopt.problem import TuningProblem
from repro.ytopt.search import AMBS


def _space(seed):
    space = ConfigurationSpace(seed=seed)
    for name in ("P0", "P1"):
        space.add_hyperparameter(OrdinalHyperparameter(name, tuple(range(2, 26, 2))))
    return space


class FakeNativeEvaluator:
    """Real-clock evaluator: deterministic cost, recording precompile, and
    the names of the threads alive whenever ``evaluate`` runs."""

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


def _run(evals, pipeline=False, compile_jobs=None, seed=0, refit_every=None,
         dense_until=None):
    """One AMBS run; ``dense_until`` installs an explicit optimizer with that
    geometric refit schedule."""
    evaluator = FakeNativeEvaluator()
    space = _space(seed)
    optimizer = None
    if dense_until is not None:
        optimizer = Optimizer(
            space, seed=seed, refit_schedule=RefitSchedule(dense_until=dense_until)
        )
    problem = TuningProblem(space, evaluator, name="fake")
    search = AMBS(
        problem,
        optimizer=optimizer,
        max_evals=evals,
        seed=seed,
        pipeline=pipeline,
        compile_jobs=compile_jobs,
        refit_every=refit_every,
    )
    result = search.run()
    return result, evaluator


def _loop_threads(names):
    return {n for n in names if n.startswith(("repro-build", "repro-spec"))}


class TestPipelinedEngine:
    def test_speculation_hits_and_each_config_built_once(self):
        result, evaluator = _run(40, pipeline=True, compile_jobs=2, dense_until=8)
        assert result.n_evals == 40
        # Compile-ahead fired and the real waves picked the builds up.
        assert result.overhead["spec_hit_rate"] > 0.0
        # Dedup: no configuration was ever built twice (spec-hit reuse).
        assert len(evaluator.precompiled) == len(set(evaluator.precompiled))

    def test_matches_serial_twin_on_deterministic_costs(self):
        """Same refit schedule, same seed, deterministic costs: the pipelined
        loop (speculation, side thread, build pool and all) commits the
        same configurations and runtimes as the serial loop."""
        pipelined, _ = _run(38, pipeline=True, compile_jobs=2, refit_every=0)
        serial, _ = _run(38, refit_every=0)
        pip_records = [
            (r.config, r.runtime) for r in pipelined.database.records()
        ]
        ser_records = [
            (r.config, r.runtime) for r in serial.database.records()
        ]
        assert pip_records == ser_records

    def test_speculative_misses_never_told(self):
        result, _ = _run(30, pipeline=True, compile_jobs=2, dense_until=8)
        assert len(result.database.records()) == 30

    def test_refit_schedule_reduces_fits(self):
        pipelined, _ = _run(40, pipeline=True, dense_until=8)
        # The legacy loop refits on every model-phase ask (evals - initial
        # design); the geometric schedule must do strictly fewer, and every
        # skip is accounted for.
        legacy_fits = 40 - 10
        assert pipelined.overhead["refits"] < legacy_fits
        assert pipelined.overhead["refits_skipped"] > 0
        assert (
            pipelined.overhead["refits"] + pipelined.overhead["refits_skipped"]
            == legacy_fits
        )


class TestSerialStaysSerial:
    def _traced(self, **kw):
        sink = RecordingSink()
        tel = Telemetry(sinks=[sink])
        with telemetry_session(tel):
            result, evaluator = _run(24, compile_jobs=2, **kw)
        tel.close()
        spans = {e.name for e in sink.events if e.kind == "span_closed"}
        return result, evaluator, sink.kinds(), spans

    def test_serial_loop_builds_nothing_ahead(self):
        result, evaluator, kinds, spans = self._traced()
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

    def test_pipelined_twin_does_build_ahead(self):
        """The same probes see the pipeline when it is on, so the serial
        assertions above cannot pass vacuously."""
        result, evaluator, kinds, spans = self._traced(pipeline=True, dense_until=8)
        assert evaluator.precompiled
        assert {n.split("_")[0] for n in _loop_threads(evaluator.threads_seen)} == {
            "repro-build", "repro-spec",
        }
        assert "pipeline_stats" in kinds
        assert "pipeline_wait" in spans
        assert result.overhead["mode"] == "pipelined"

