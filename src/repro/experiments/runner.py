"""Run the paper's tuning experiments: 5 tuners × (kernel, problem size).

Protocol (paper §5): 100 evaluations per tuner; compare (a) the best kernel
runtime each tuner finds and (b) the total autotuning process time. Each tuner
gets a fresh virtual clock and an independently seeded search. Measurement
semantics follow each system's defaults:

* ytopt evaluates each selected configuration **once** (number=1, sequential
  builds);
* AutoTVM tuners measure in batches of 8 with a parallel builder and
  ``number=3`` averaged runs per configuration (plus per-batch overhead);
* AutoTVM-XGB is capped at :data:`PAPER_XGB_TRIAL_CAP` (56) evaluations,
  reproducing the stall the paper reports.

The per-run machinery — evaluator construction, tuner dispatch, telemetry
bracketing — lives in :class:`repro.service.session.TuningSession`; this
module runs experiments over it, and every session knob is a
:class:`~repro.service.jobs.JobSpec` field passed through by name.
``TunerRun`` and ``ALL_TUNERS`` are re-exported here.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import Any

from repro.bench.protocols import PAPER_XGB_TRIAL_CAP
from repro.kernels.registry import KernelBenchmark, get_benchmark
from repro.service.jobs import JobSpec
from repro.service.session import ALL_TUNERS, TunerRun, TuningSession
from repro.swing import SwingPerformanceModel


@dataclass
class ExperimentResult:
    """All tuner runs for one (kernel, problem size)."""

    kernel: str
    size_name: str
    max_evals: int
    runs: dict[str, TunerRun]

    def winner(self) -> TunerRun:
        """The run with the smallest best runtime (ties: fastest process time)."""
        return min(self.runs.values(), key=lambda r: (r.best_runtime, r.total_time))

    def fastest_process(self) -> TunerRun:
        return min(self.runs.values(), key=lambda r: r.total_time)


def run_tuner(
    benchmark: KernelBenchmark,
    tuner: str,
    model: SwingPerformanceModel | None = None,
    xgb_trial_cap: int | None = PAPER_XGB_TRIAL_CAP,
    **spec_fields: Any,
) -> TunerRun:
    """Run one tuner on one benchmark under the simulated Swing backend.

    ``spec_fields`` are the other :class:`~repro.service.jobs.JobSpec` knobs
    (``max_evals``, ``seed``, ``jobs``, ...; see their notes there).
    ``xgb_trial_cap`` caps AutoTVM-XGB's budget (None = uncapped) and
    ``model`` replaces the seeded Swing performance model.

    This is the single-run front door for in-process callers; it builds a
    one-shot :class:`~repro.service.session.TuningSession` reporting to the
    ambient telemetry. Long-running multi-session use goes through
    :class:`repro.service.server.TuningServer` instead.
    """
    spec = JobSpec(
        kernel=benchmark.kernel, size=benchmark.size_name, tuner=tuner, **spec_fields
    )
    return TuningSession(
        spec, benchmark=benchmark, model=model, xgb_trial_cap=xgb_trial_cap
    ).run()


def run_experiment(
    kernel: str,
    size_name: str,
    tuners: Sequence[str] = ALL_TUNERS,
    xgb_trial_cap: int | None = PAPER_XGB_TRIAL_CAP,
    **spec_fields: Any,
) -> ExperimentResult:
    """Run all requested tuners on one (kernel, size) experiment.

    Every tuner gets the same :class:`~repro.service.jobs.JobSpec` knobs
    (``spec_fields``), except that ``transfer_from`` applies to the ytopt
    tuner only (AutoTVM tuners have no surrogate initial design to seed); it
    is silently skipped for the rest.
    """
    benchmark = get_benchmark(kernel, size_name)
    spec = JobSpec(kernel=kernel, size=size_name, **spec_fields)
    runs = {
        t: TuningSession(
            replace(
                spec,
                tuner=t,
                transfer_from=spec.transfer_from if t == "ytopt" else None,
            ),
            benchmark=benchmark,
            xgb_trial_cap=xgb_trial_cap,
        ).run()
        for t in tuners
    }
    return ExperimentResult(
        kernel=kernel, size_name=size_name, max_evals=spec.max_evals, runs=runs
    )
