"""TuningSession: ownership, determinism, cancellation, fault injection."""

import json

import pytest

from repro.autotvm import GATuner
from repro.common.errors import ServiceError
from repro.experiments.runner import run_tuner
from repro.kernels import get_benchmark
from repro.service import (
    FaultInjector,
    InjectedFault,
    JobSpec,
    SessionCancelled,
    TuningSession,
)
from repro.telemetry import RunStore, event_line
from repro.telemetry.bus import Sink
from repro.ytopt import AMBS


def spec(**kw) -> JobSpec:
    base = dict(kernel="lu", size="large", tuner="ytopt", max_evals=6, seed=0)
    base.update(kw)
    return JobSpec(**base)


def payload_of(run) -> str:
    return json.dumps(run.to_payload(), sort_keys=True)


class _CollectingSink(Sink):
    """Accumulate the canonical serialized line of every event."""

    def __init__(self):
        self.lines = []

    def handle(self, event):
        self.lines.append(event_line(event))


class TestOwnership:
    def test_session_owns_its_stack(self):
        s = TuningSession(spec())
        assert s.evaluator is not None
        assert s.optimizer is not None  # ytopt exposes the BO optimizer
        assert s.autotuner is not None
        assert s.clock is not None

    def test_two_sessions_share_nothing(self):
        a = TuningSession(spec(seed=0))
        b = TuningSession(spec(seed=1))
        assert a.evaluator is not b.evaluator
        assert a.optimizer is not b.optimizer
        assert a.clock is not b.clock

    def test_autotvm_session_owns_tuner_and_measurer(self):
        # The AutoTVM strategy is the optimizer of the session's AMBS loop,
        # which measures its waves through the session's guarded evaluator.
        s = TuningSession(spec(tuner="AutoTVM-GA"))
        assert isinstance(s.optimizer, GATuner)
        assert isinstance(s.autotuner, AMBS)
        assert s.autotuner.optimizer is s.optimizer
        assert s.autotuner.problem.evaluator is s.evaluator

    def test_single_use(self):
        s = TuningSession(spec(max_evals=3))
        s.run()
        with pytest.raises(ServiceError, match="single-use"):
            s.run()


class TestDeterminism:
    def test_session_matches_run_tuner(self):
        """The session refactor must not change run_tuner's trajectories."""
        run_a = TuningSession(spec()).run()
        run_b = run_tuner(get_benchmark("lu", "large"), "ytopt",
                          max_evals=6, seed=0)
        assert payload_of(run_a) == payload_of(run_b)

    def test_session_matches_run_tuner_autotvm(self):
        run_a = TuningSession(spec(tuner="AutoTVM-Random")).run()
        run_b = run_tuner(get_benchmark("lu", "large"), "AutoTVM-Random",
                          max_evals=6, seed=0)
        assert payload_of(run_a) == payload_of(run_b)

    def test_owned_telemetry_does_not_change_trajectory(self, tmp_path):
        bare = TuningSession(spec()).run()
        instrumented = TuningSession(
            spec(),
            store_path=str(tmp_path / "shard.sqlite"),
            trace_path=str(tmp_path / "trace.jsonl"),
        ).run()
        assert payload_of(bare) == payload_of(instrumented)


class TestLoopKnobAdmission:
    """pipeline / compile_jobs / refit_every drive the BO loop; AutoTVM
    tuners have no such loop and must refuse them, not drop them."""

    @pytest.mark.parametrize(
        "knobs",
        [dict(pipeline=True), dict(compile_jobs=4), dict(refit_every=1)],
        ids=["pipeline", "compile_jobs", "refit_every"],
    )
    def test_autotvm_rejects_loop_knobs(self, knobs):
        from repro.common.errors import TuningError
        from repro.service import JobRejected

        bad = spec(tuner="AutoTVM-GA", **knobs)
        (name,) = knobs
        with pytest.raises(JobRejected, match=f"{name} only apply to BO-family"):
            bad.validate()
        with pytest.raises(TuningError, match=f"{name} only apply to BO-family"):
            TuningSession(bad)

    def test_bo_tuners_accept_loop_knobs(self):
        for tuner in ("ytopt", "ytopt-gp", "ytopt-tpe"):
            spec(tuner=tuner, pipeline=True, compile_jobs=2, refit_every=1).validate()

    def test_cli_tune_exits_1_with_error(self, capsys):
        """`repro tune` rejects every spec `repro submit` rejects."""
        from repro.cli import main

        cases = [
            (["--tuner", "AutoTVM-GA", "--compile-jobs", "4"],
             ("compile_jobs", "AutoTVM-GA")),
            (["--label", "  "], ("label must be a non-empty string",)),
            (["--tuner", "ytopt-gp", "--transfer-bias", "-1"],
             ("transfer_bias must be >= 0",)),
            (["--tuner", "AutoTVM-Random", "--transfer-bias", "-1"],
             ("transfer_bias must be >= 0",)),
        ]
        for flags, expected in cases:
            rc = main(["tune", "--kernel", "lu", "--size", "large",
                       "--max-evals", "4", "--quiet", *flags])
            assert rc == 1, flags
            err = capsys.readouterr().err
            assert err.startswith("error: "), flags
            assert all(text in err for text in expected), err


class TestShard:
    def test_run_lands_in_shard(self, tmp_path):
        shard = tmp_path / "shard.sqlite"
        run = TuningSession(spec(), store_path=str(shard)).run()
        with RunStore(shard) as store:
            rows = store.runs()
        assert len(rows) == 1
        assert rows[0].best_runtime == pytest.approx(run.best_runtime)
        assert rows[0].n_evals == run.n_evals

    def test_extra_sink_stream_equals_trace(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        collector = _CollectingSink()
        TuningSession(
            spec(), trace_path=str(trace), extra_sinks=[collector]
        ).run()
        assert collector.lines == trace.read_text().splitlines()
        assert any('"event": "run_finished"' in line for line in collector.lines)


class TestCancellation:
    def test_precancelled_session_never_starts(self):
        s = TuningSession(spec())
        s.cancel("test")
        with pytest.raises(SessionCancelled):
            s.run()

    def test_midrun_cancel_leaves_no_partial_shard(self, tmp_path):
        shard = tmp_path / "shard.sqlite"
        s = TuningSession(
            spec(max_evals=20, fault={"mode": "cancel", "at_eval": 3}),
            store_path=str(shard),
        )
        with pytest.raises(SessionCancelled, match="injected self-cancel"):
            s.run()
        # the store sink only commits on RunFinished, never emitted here
        with RunStore(shard) as store:
            assert store.runs() == []


class TestFaultInjection:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ServiceError, match="unknown fault mode"):
            FaultInjector({"mode": "explode"})

    def test_crash_fires_at_eval(self):
        s = TuningSession(spec(fault={"mode": "crash", "at_eval": 2}))
        with pytest.raises(InjectedFault, match="evaluation 2"):
            s.run()

    def test_crash_fires_at_eval_inside_a_probed_wave(self):
        """Multi-fidelity measures a whole AutoTVM wave; the guard must still
        check before every evaluation, not once per wave."""
        knobs = dict(tuner="AutoTVM-Random", max_evals=8, repeats=3, probe_repeats=1)
        clean = TuningSession(spec(**knobs)).run()
        s = TuningSession(spec(**knobs, fault={"mode": "crash", "at_eval": 3}))
        with pytest.raises(InjectedFault, match="evaluation 3"):
            s.run()
        # The fault fired right after the wave's second evaluation.
        assert s.clock.now == clean.trajectory[1][0]

    def test_crash_spares_later_attempts(self):
        """attempt > attempts runs clean — the retry-determinism contract."""
        clean = TuningSession(spec()).run()
        retried = TuningSession(
            spec(fault={"mode": "crash", "at_eval": 2, "attempts": 1}),
            attempt=2,
        ).run()
        assert payload_of(retried) == payload_of(clean)

    def test_crashed_sink_does_not_break_the_run(self, tmp_path):
        """A crashing sink is quarantined by the bus; the store still commits."""
        shard = tmp_path / "shard.sqlite"
        clean = TuningSession(spec()).run()
        run = TuningSession(
            spec(fault={"mode": "sink"}), store_path=str(shard)
        ).run()
        assert payload_of(run) == payload_of(clean)
        with RunStore(shard) as store:
            assert len(store.runs()) == 1

    def test_slow_fault_stalls_but_completes(self):
        run = TuningSession(
            spec(max_evals=3, fault={"mode": "slow", "per_eval": 0.01})
        ).run()
        assert run.n_evals == 3
