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
module is the thin experiment driver over it. ``TunerRun``, ``ALL_TUNERS``
and ``make_evaluator`` are re-exported here for backward compatibility.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.bench.protocols import PAPER_XGB_TRIAL_CAP
from repro.kernels.registry import KernelBenchmark, get_benchmark
from repro.service.jobs import JobSpec
from repro.service.session import (  # noqa: F401 - re-exported names
    ALL_TUNERS,
    TunerRun,
    TuningSession,
    make_evaluator,
)
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
    max_evals: int = 100,
    seed: int = 0,
    model: SwingPerformanceModel | None = None,
    xgb_trial_cap: int | None = PAPER_XGB_TRIAL_CAP,
    jobs: int = 1,
    timeout: float | None = None,
    repeats: int = 1,
    probe_repeats: int | None = None,
    promote_margin: float = 0.15,
    prune: bool = False,
    prune_threshold: float = 1.25,
    warm_start_db: "str | None" = None,
    transfer_db: "str | None" = None,
    transfer_bias: float = 0.5,
    label: "str | None" = None,
    pipeline: bool = False,
    compile_jobs: "int | None" = None,
    refit_every: "int | None" = None,
) -> TunerRun:
    """Run one tuner on one benchmark under the simulated Swing backend.

    ``jobs`` > 1 measures in parallel waves: ytopt proposes constant-liar
    batches of ``jobs`` configurations, AutoTVM runs each 8-config batch on a
    ``jobs``-wide fleet; under simulation the virtual clock advances by the
    max of each wave, not the sum. ``timeout`` is the per-trial kernel budget
    (a timed-out configuration is recorded as failed and charged the budget).

    ``repeats`` sets the full per-config repeat budget; ``probe_repeats``
    (when smaller) turns on multi-fidelity measurement — probe first, promote
    to the full budget only if the candidate looks competitive within
    ``promote_margin`` of the incumbent. ``prune`` enables ytopt's
    surrogate-guided pruning, and ``warm_start_db`` points at a telemetry run
    store whose matching prior trials pre-train the ytopt surrogate.

    ``transfer_db`` points at a run store (file or service shard root) whose
    *cross-task* corpus fits a meta-surrogate that seeds ytopt's initial
    design and biases early acquisition by ``transfer_bias`` (see
    :mod:`repro.transfer`); the benchmark's own (kernel, size) is excluded
    from the fit. ``label`` overrides the identity the run is stored under,
    so A/B variants of one tuner coexist in a single store.

    ``pipeline`` runs the BO loop pipelined (:mod:`repro.ytopt.search`): a
    ``compile_jobs``-wide compile-ahead build pool overlapped with the
    surrogate ask and measurement, with ``refit_every`` selecting the
    surrogate refit policy (None/0 = geometric schedule, 1 = refit every
    observation — the byte-identical escape hatch). Under Swing simulation
    pipelining is a structural no-op on the trajectory; it pays off on real
    native-tier measurement. AutoTVM tuners reject these three knobs.

    This is the single-run front door for in-process callers; it builds a
    one-shot :class:`~repro.service.session.TuningSession` reporting to the
    ambient telemetry. Long-running multi-session use goes through
    :class:`repro.service.server.TuningServer` instead.
    """
    session = TuningSession(
        JobSpec(
            kernel=benchmark.kernel,
            size=benchmark.size_name,
            tuner=tuner,
            max_evals=max_evals,
            seed=seed,
            jobs=jobs,
            timeout=timeout,
            repeats=repeats,
            probe_repeats=probe_repeats,
            promote_margin=promote_margin,
            prune=prune,
            prune_threshold=prune_threshold,
            warm_start_db=warm_start_db,
            transfer_from=transfer_db,
            transfer_bias=transfer_bias,
            label=label,
            pipeline=pipeline,
            compile_jobs=compile_jobs,
            refit_every=refit_every,
        ),
        benchmark=benchmark,
        model=model,
        xgb_trial_cap=xgb_trial_cap,
    )
    return session.run()


def run_experiment(
    kernel: str,
    size_name: str,
    tuners: Sequence[str] = ALL_TUNERS,
    max_evals: int = 100,
    seed: int = 0,
    xgb_trial_cap: int | None = PAPER_XGB_TRIAL_CAP,
    jobs: int = 1,
    timeout: float | None = None,
    repeats: int = 1,
    probe_repeats: int | None = None,
    promote_margin: float = 0.15,
    prune: bool = False,
    prune_threshold: float = 1.25,
    warm_start_db: "str | None" = None,
    transfer_db: "str | None" = None,
    transfer_bias: float = 0.5,
) -> ExperimentResult:
    """Run all requested tuners on one (kernel, size) experiment.

    ``transfer_db`` applies to the ytopt tuner only (AutoTVM tuners have no
    surrogate initial design to seed); it is silently skipped for the rest.
    """
    benchmark = get_benchmark(kernel, size_name)
    runs = {
        t: run_tuner(
            benchmark,
            t,
            max_evals=max_evals,
            seed=seed,
            xgb_trial_cap=xgb_trial_cap,
            jobs=jobs,
            timeout=timeout,
            repeats=repeats,
            probe_repeats=probe_repeats,
            promote_margin=promote_margin,
            prune=prune,
            prune_threshold=prune_threshold,
            warm_start_db=warm_start_db,
            transfer_db=transfer_db if t == "ytopt" else None,
            transfer_bias=transfer_bias,
        )
        for t in tuners
    }
    return ExperimentResult(kernel=kernel, size_name=size_name, max_evals=max_evals, runs=runs)
