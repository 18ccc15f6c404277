"""Helpers that drive AutoTVM tuners through the AMBS loop in tests."""

from __future__ import annotations

import signal
from contextlib import contextmanager

from repro.autotvm import Task, Tuner, TuningRecord, task_from_benchmark
from repro.common.timing import VirtualClock
from repro.kernels import get_benchmark
from repro.swing import SwingEvaluator
from repro.ytopt import AMBS, SearchResult, TuningProblem


def swing_task(
    kernel: str = "cholesky", size: str = "large"
) -> tuple[Task, SwingEvaluator]:
    """An AutoTVM task priced by a fresh Swing evaluator (one run per
    measurement, 8 parallel builders)."""
    bench = get_benchmark(kernel, size)
    evaluator = SwingEvaluator(bench.profile, clock=VirtualClock(), compile_parallelism=8)
    return task_from_benchmark(bench, evaluator), evaluator


def search(tuner: Tuner, max_evals: int) -> AMBS:
    """AMBS over ``tuner`` in AutoTVM's waves of 8, with no per-wave overhead."""
    problem = TuningProblem(tuner.space, tuner.task.evaluator, name=tuner.task.name)
    return AMBS(
        problem,
        optimizer=tuner,
        batch_size=8,
        optimizer_overhead=0.0,
        max_evals=max_evals,
        tuner_name=type(tuner).__name__,
    )


def run_search(tuner: Tuner, max_evals: int) -> SearchResult:
    return search(tuner, max_evals).run()


@contextmanager
def deadline(seconds: int):
    """Fail, instead of hanging, when the block runs past ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"did not finish within {seconds}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def tuning_records(result: SearchResult, task: str, tuner: str = "x") -> list[TuningRecord]:
    """A finished search's database as AutoTVM tuning records."""
    return [
        TuningRecord(
            task=task,
            tuner=tuner,
            config=r.config,
            costs=(r.runtime,) if r.ok else (),
            compile_time=r.compile_time,
            timestamp=r.elapsed,
            error=r.error,
        )
        for r in result.database
    ]
