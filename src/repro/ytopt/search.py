"""AMBS: the search loop of the proposed autotuning framework (Fig. 3).

Asynchronous Model-Based Search is ytopt's driver. Each iteration runs the
paper's Steps 1–5: the Bayesian optimizer selects a configuration (Step 1), the
code mold / schedule builder instantiates it (Step 2), the kernel is compiled
(Step 3) and executed (Step 4), and the runtime lands in the performance
database and back in the optimizer (Step 5) — until ``max_evals`` or the
wall-clock budget is exhausted.

``AMBS.run`` is the one loop for both execution modes. Serial (the default)
runs the steps back to back. Pipelined (``pipeline=True``) adds two
overlaps and keeps everything else — spans, clock charges, prune/tell/event
order — step for step:

1. **Parallel wave builds.** Every configuration headed for measurement is
   submitted to a :class:`~repro.pipeline.BuildPool` before the loop blocks
   on it, so a constant-liar wave compiles ``compile_jobs`` wide instead of
   one subprocess at a time.
2. **Compile-ahead speculation.** While wave *k* builds and measures, the
   optimizer's side-effect-free :meth:`~repro.ytopt.Optimizer.speculate`
   previews wave *k+1* on a side thread and its builds start in the
   background. When the landed wave provably cannot have changed the
   proposal, :meth:`~repro.ytopt.Optimizer.confirm_speculation` adopts the
   preview as the real ask. A spec-miss is discarded without a ``tell``.

Observations commit on the loop's thread in ask order in both modes, so at
``refit_every=1`` a pipelined run's store is byte-identical to the serial
run's. Pipelined runs also emit ``pipeline_wait`` spans for the build stalls
and one :class:`~repro.telemetry.PipelineStats` event at the end.

The loop drives any ask/tell optimizer: ytopt's :class:`~repro.ytopt.Optimizer`
and TPE, and AutoTVM's four strategies (:class:`repro.autotvm.Tuner`). An
optimizer may return a wave shorter than asked for; an empty wave (or
``None`` from ``ask()``) means it is exhausted, and the run ends before the
wave's ``optimizer_overhead`` is charged.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.common.errors import TuningError
from repro.pipeline.build_pool import BuildPool, default_compile_jobs
from repro.runtime.measure import FAILED_COST, MeasureResult
from repro.telemetry.context import NULL_TELEMETRY, get_telemetry, scoped_telemetry
from repro.telemetry.events import PipelineStats, TrialMeasured, TrialPruned
from repro.ytopt.database import PerformanceDatabase
from repro.ytopt.optimizer import Optimizer, refit_policy
from repro.ytopt.problem import TuningProblem


@dataclass
class SearchResult:
    """Outcome of a search run.

    ``overhead`` breaks the run's wall time into stages (the
    ``overhead_breakdown`` report column): ``search_seconds`` — ask/refit/
    acquisition (and prune decisions); ``compile_seconds`` — per-trial build
    cost on the critical path (plus, pipelined, the seconds stalled on the
    build pool); ``measure_seconds`` — kernel execution. Under a virtual
    clock all four columns are its seconds and the three stages add up to
    ``wall_seconds``; under a real clock they are ``perf_counter`` seconds.
    Pipelined runs add the build-pool counters (speculation hit rate,
    busy/wait seconds, occupancy).
    """

    best_config: dict[str, int]
    best_runtime: float
    n_evals: int
    total_elapsed: float
    database: PerformanceDatabase
    overhead: "dict[str, float] | None" = None

    def __repr__(self) -> str:
        return (
            f"SearchResult(best={self.best_runtime:.4g}s @ {self.best_config}, "
            f"{self.n_evals} evals, {self.total_elapsed:.4g}s process time)"
        )


class AMBS:
    """Model-based search: one evaluation per iteration, lowest cost wins."""

    def __init__(
        self,
        problem: TuningProblem,
        optimizer: Optimizer | None = None,
        max_evals: int = 100,
        max_time: float | None = None,
        seed: int | None = None,
        tuner_name: str = "ytopt",
        #: Modeled/real per-iteration cost of the optimizer itself (surrogate
        #: refit + acquisition over the candidate pool). Charged to the
        #: evaluator's clock under simulation so process time is honest.
        optimizer_overhead: float = 0.2,
        #: >1 enables ytopt's async mode: configurations are proposed in
        #: constant-liar batches (parallel evaluation on a multi-GPU node).
        batch_size: int = 1,
        #: Measurement parallelism for each batch. None (default) measures a
        #: batch ``batch_size`` wide — the constant-liar batch maps 1:1 onto
        #: the measurement fleet. Set explicitly to decouple proposal batching
        #: from worker count.
        jobs: int | None = None,
        #: Resume a previous run: its records pre-train the optimizer and are
        #: carried into this run's database; already-evaluated configurations
        #: are never re-measured.
        resume_from: PerformanceDatabase | None = None,
        #: Surrogate-guided pruning: once the surrogate is trained, skip
        #: compilation entirely for candidates whose predicted lower confidence
        #: bound exceeds ``prune_threshold`` × the incumbent runtime. Pruned
        #: trials are charged ``prune_overhead`` seconds of process time,
        #: recorded with the surrogate estimate (fidelity "pruned"), and count
        #: against ``max_evals``.
        prune: bool = False,
        prune_threshold: float = 1.25,
        prune_overhead: float = 0.02,
        prune_z: float = 0.5,
        #: Warm start from prior runs (see :class:`repro.ytopt.WarmStart`):
        #: records pre-train the surrogate and land in the database, and —
        #: unlike ``resume_from`` — count toward ``max_evals``, so a warm
        #: start with a matching budget replays the stored result without
        #: re-measuring anything.
        warm_start: PerformanceDatabase | None = None,
        #: Transfer learning (see :class:`repro.transfer.TransferSeed`): seeds
        #: the default optimizer's initial design with corpus-ranked
        #: configurations and biases early acquisition. Ignored when an
        #: explicit ``optimizer`` is passed — configure that optimizer
        #: directly instead.
        transfer_seed=None,
        transfer_bias: float = 0.0,
        #: Pipelined execution (see the module docstring): overlap the
        #: surrogate ask, a ``compile_jobs``-wide build pool with
        #: compile-ahead speculation, and measurement. ``compile_jobs=None``
        #: picks :func:`~repro.pipeline.default_compile_jobs`; it is unused
        #: by the serial loop.
        pipeline: bool = False,
        compile_jobs: int | None = None,
        #: Surrogate refit policy for the *default* optimizer (see
        #: :func:`~repro.ytopt.optimizer.refit_policy`). Ignored when an
        #: explicit ``optimizer`` is passed — configure that optimizer
        #: directly.
        refit_every: int | None = None,
    ) -> None:
        if max_evals < 1:
            raise TuningError(f"max_evals must be >= 1, got {max_evals}")
        if max_time is not None and max_time <= 0:
            raise TuningError(f"max_time must be positive, got {max_time}")
        if batch_size < 1:
            raise TuningError(f"batch_size must be >= 1, got {batch_size}")
        if jobs is not None and jobs < 1:
            raise TuningError(f"jobs must be >= 1, got {jobs}")
        if prune_threshold < 1.0:
            raise TuningError(
                f"prune_threshold must be >= 1.0 (a multiple of the incumbent), "
                f"got {prune_threshold}"
            )
        if prune_overhead < 0:
            raise TuningError(f"prune_overhead must be >= 0, got {prune_overhead}")
        if compile_jobs is not None and compile_jobs < 1:
            raise TuningError(f"compile_jobs must be >= 1, got {compile_jobs}")
        self.problem = problem
        if optimizer is not None and transfer_seed is not None:
            raise TuningError(
                "pass transfer_seed either to AMBS (default optimizer) or to "
                "an explicit Optimizer, not both"
            )
        self.pipeline = pipeline
        self.compile_jobs = compile_jobs
        refit_interval, refit_schedule = refit_policy(refit_every, self.pipeline)
        self.optimizer = (
            optimizer
            if optimizer is not None
            else Optimizer(
                problem.space,
                seed=seed,
                refit_interval=refit_interval,
                refit_schedule=refit_schedule,
                transfer_seed=transfer_seed,
                transfer_bias=transfer_bias,
            )
        )
        self.max_evals = max_evals
        self.max_time = max_time
        self.tuner_name = tuner_name
        self.optimizer_overhead = optimizer_overhead
        self.batch_size = batch_size
        self.jobs = jobs
        self.prune = prune
        self.prune_threshold = prune_threshold
        self.prune_overhead = prune_overhead
        self.prune_z = prune_z
        self.n_pruned = 0
        # Stage-seconds accumulators behind SearchResult.overhead.
        self._search_wall = 0.0
        self._measure_wall = 0.0
        self._compile_sum = 0.0
        self._incumbent = math.inf  # best *measured* runtime (never an estimate)
        self._preloaded = 0
        self.database = PerformanceDatabase(name=f"{problem.name}:{tuner_name}")
        for source, counts in ((resume_from, False), (warm_start, True)):
            if source is None:
                continue
            for rec in source:
                self.optimizer.tell(rec.config, rec.runtime)
                if rec.ok and not rec.low_fidelity:
                    self._incumbent = min(self._incumbent, rec.runtime)
            self.database.extend(source)
            if counts:
                self._preloaded += len(source)

    def _try_prune(self, config, evaluator, clock) -> MeasureResult | None:
        """Surrogate-prune ``config`` if its predicted lower bound is hopeless.

        Returns the synthetic "pruned" MeasureResult, or None when the trial
        must be measured for real (pruning off, surrogate not yet trained, no
        incumbent, or the candidate looks competitive). The prune decision
        costs ``prune_overhead`` seconds of process time — charged to the
        clock so the total-time tables stay honest.
        """
        if not self.prune or not math.isfinite(self._incumbent):
            return None
        pred = self.optimizer.predict_cost(config, z=self.prune_z)
        if pred is None:  # still in the initial random design
            return None
        est, lower = pred
        limit = self.prune_threshold * self._incumbent
        if lower <= limit:
            return None
        if clock is not None:
            clock.advance(self.prune_overhead)
            self._search_wall += self.prune_overhead
        # The recorded estimate is >= the lower bound > incumbent, so a pruned
        # record can never displace a measured best().
        estimate = max(est, lower)
        result = MeasureResult(
            config=dict(config),
            costs=(estimate,),
            compile_time=0.0,
            timestamp=evaluator.elapsed(),
            extra={"pruned": 1.0, "prune_bound": lower},
            fidelity="pruned",
        )
        self.n_pruned += 1
        tel = get_telemetry()
        if tel.enabled:
            tel.emit(
                TrialPruned(
                    config=dict(result.config),
                    estimate=estimate,
                    bound=lower,
                    incumbent=self._incumbent,
                    limit=limit,
                    elapsed=result.timestamp,
                    source="surrogate",
                    reason=f"lcb {lower:.4g} > {self.prune_threshold:g}x "
                    f"incumbent {self._incumbent:.4g}",
                )
            )
        return result

    def _commit(self, config, result: MeasureResult, tel) -> None:
        """Step 5 for one observation: database, tell, incumbent, event."""
        self.database.add(result, tuner=self.tuner_name)
        cost = result.mean_cost if result.ok else FAILED_COST
        self.optimizer.tell(config, cost)
        if result.ok and not result.low_fidelity:
            self._incumbent = min(self._incumbent, result.mean_cost)
        if tel.enabled:
            tel.emit(
                TrialMeasured(
                    config=dict(result.config),
                    runtime=result.mean_cost,
                    compile_time=result.compile_time,
                    elapsed=result.timestamp,
                    error=result.error,
                    cache_hit=bool(result.extra.get("cache_hit")),
                    fidelity=result.fidelity,
                    backend=result.backend,
                )
            )

    def _ask(self, n: int) -> list:
        """Step 1: up to ``n`` configurations, ``[]`` once the optimizer is
        exhausted."""
        if n > 1:
            return self.optimizer.ask_batch(n)
        config = self.optimizer.ask()
        return [] if config is None else [config]

    def measure(self, to_measure: list) -> list[MeasureResult]:
        """Steps 2–4 for one wave."""
        if len(to_measure) == 1:
            return [self.problem.objective(to_measure[0])]
        if to_measure:
            jobs = self.jobs if self.jobs is not None else len(to_measure)
            return self.problem.objective_batch(to_measure, jobs=jobs)
        return []

    @staticmethod
    def _charged_compile(measured: list[MeasureResult]) -> float:
        """Build seconds the evaluator charged for one measured wave.

        A trial's charge is its ``charged_compile`` (a simulated evaluator's
        compile time over its build parallelism), else its ``compile_time``.
        A batch priced in max-of-wave accounting (results stamped
        ``wave_jobs``) is charged the largest of each ``wave_jobs``-wide
        wave, as :func:`~repro.runtime.parallel.evaluate_batch` charges its
        clock; otherwise the trials' charges add up.
        """
        charged = [r.extra.get("charged_compile", r.compile_time) for r in measured]
        width = int(measured[0].extra.get("wave_jobs", 1)) if measured else 1
        return sum(max(charged[i : i + width]) for i in range(0, len(charged), width))

    @staticmethod
    def _stamp(clock) -> float:
        """Stage-accounting timestamp: virtual seconds under simulation (so
        the breakdown's units match the stored compile/run costs), wall
        seconds for real measurement."""
        return clock.now if clock is not None else time.perf_counter()

    def _overhead_breakdown(self, wall_total: float, virtual: bool, **extra: float) -> dict:
        """The per-run stage split behind the report's ``overhead_breakdown``
        column. ``compile_seconds`` is critical-path build cost (what the
        trials were charged, plus any pipeline build-pool stall passed via
        ``extra``); ``measure_seconds`` the measurement wall time net of
        those builds; ``search_seconds`` ask + refit + acquisition + prune
        decisions. Real seconds are rounded to microseconds. Virtual seconds
        are kept whole: every charge to the clock falls in one of the three
        stages, so they add up to ``wall_seconds``."""
        stall = extra.pop("compile_stall", 0.0)
        out = {
            "mode": "pipelined" if self.pipeline else "serial",
            "search_seconds": self._search_wall,
            "compile_seconds": self._compile_sum + stall,
            "measure_seconds": max(0.0, self._measure_wall - self._compile_sum),
            "wall_seconds": wall_total,
            **extra,
        }
        if not virtual:
            out.update({k: round(v, 6) for k, v in out.items() if isinstance(v, float)})
        return out

    def _finish(self, wall_total: float, virtual: bool, **extra: float) -> SearchResult:
        best = self.database.best()
        return SearchResult(
            best_config=best.config,
            best_runtime=best.runtime,
            n_evals=len(self.database),
            total_elapsed=self.database.total_elapsed(),
            database=self.database,
            overhead=self._overhead_breakdown(wall_total, virtual, **extra),
        )

    def _speculate(self, pool: BuildPool, width: int, wave: tuple) -> list | None:
        """Compile-ahead: preview the next ``width``-wide wave while ``wave``
        builds and measures, and start its builds in ``pool``."""
        # The side thread must not reach the process-global telemetry bus
        # (its sinks are not thread-safe).
        with scoped_telemetry(NULL_TELEMETRY):
            picks = self.optimizer.speculate(width, will_tell=len(wave), exclude=wave)
        for config in picks or ():
            pool.submit(config, speculative=True)
        return picks or None

    def _pipeline_stats(self, pool: BuildPool, tel) -> dict:
        """Emit the run's :class:`PipelineStats` event; returns the build-pool
        counters for the overhead breakdown."""
        refits = getattr(self.optimizer, "n_refits", 0)
        refits_skipped = getattr(self.optimizer, "n_refits_skipped", 0)
        if tel.enabled:
            tel.emit(
                PipelineStats(
                    jobs=pool.jobs,
                    submitted=pool.submitted,
                    completed=pool.completed,
                    failures=pool.failures,
                    speculative=pool.speculative,
                    spec_hits=pool.spec_hits,
                    spec_misses=pool.spec_misses,
                    hit_rate=pool.hit_rate,
                    busy_seconds=pool.busy_seconds,
                    wait_seconds=pool.wait_seconds,
                    occupancy_peak=pool.occupancy_peak,
                    refits=refits,
                    refits_skipped=refits_skipped,
                )
            )
        return {
            "compile_stall": pool.wait_seconds,
            "compile_jobs": float(pool.jobs),
            "spec_hit_rate": pool.hit_rate,
            "pool_busy_seconds": pool.busy_seconds,
            "pool_occupancy_peak": float(pool.occupancy_peak),
            "refits": float(refits),
            "refits_skipped": float(refits_skipped),
        }

    def run(self) -> SearchResult:
        """Execute the search; returns the best configuration found."""
        self._search_wall = 0.0
        self._measure_wall = 0.0
        self._compile_sum = 0.0
        tel = get_telemetry()
        evaluator = self.problem.evaluator
        clock = getattr(evaluator, "clock", None)
        pool = spec_pool = None
        can_speculate = False
        if self.pipeline:
            precompiler = getattr(evaluator, "precompile", None)
            pool = BuildPool(
                precompiler if callable(precompiler) else None,
                self.compile_jobs or default_compile_jobs(),
            )
            # Optimizers without a speculation protocol (e.g. TPE) still
            # pipeline their wave builds; they just never compile ahead.
            can_speculate = pool.enabled and callable(
                getattr(self.optimizer, "speculate", None)
            )
            # Under a real clock the speculative ask runs on a side thread so
            # it (and the builds it seeds) overlaps the wave's build-wait and
            # measurement; under a virtual clock it runs inline — simulated
            # time cannot overlap.
            if can_speculate and clock is None:
                spec_pool = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="repro-spec"
                )
        speculated = None
        remaining = max(0, self.max_evals - self._preloaded)
        t_start = self._stamp(clock)
        try:
            while remaining > 0:
                if self.max_time is not None and evaluator.elapsed() >= self.max_time:
                    break
                n = min(self.batch_size, remaining)
                t0 = self._stamp(clock)
                with tel.span("acquisition", clock=clock):
                    configs = None
                    if speculated is not None:
                        # Spec-confirm fast path: when the landed wave
                        # provably cannot have changed the proposal, the
                        # speculative ask *is* the real ask.
                        confirm = getattr(self.optimizer, "confirm_speculation", None)
                        if callable(confirm):
                            configs = confirm(n)
                    if configs is None:
                        configs = self._ask(n)  # Step 1
                    if clock is not None and configs:
                        clock.advance(self.optimizer_overhead)
                if speculated is not None:
                    pool.score_speculation(speculated, configs)
                    speculated = None
                self._search_wall += self._stamp(clock) - t0
                if not configs:
                    break  # the optimizer has nothing left to propose
                results: list[MeasureResult | None] = [
                    self._try_prune(c, evaluator, clock) for c in configs
                ]
                to_measure = [c for c, r in zip(configs, results) if r is None]
                spec_job = None
                if pool is not None:
                    # Fan this wave's builds out before anything blocks on them.
                    for config in to_measure:
                        pool.submit(config)
                    pool.discard(c for c, r in zip(configs, results) if r is not None)
                    next_n = min(self.batch_size, remaining - len(configs))
                    if can_speculate and next_n > 0:
                        wave = tuple(configs)
                        if spec_pool is not None:
                            spec_job = spec_pool.submit(self._speculate, pool, next_n, wave)
                        else:
                            speculated = self._speculate(pool, next_n, wave)
                    if to_measure and pool.enabled:
                        with tel.span("pipeline_wait"):
                            pool.wait(to_measure)
                t0 = self._stamp(clock)
                with tel.span("measure", clock=clock):
                    measured = self.measure(to_measure)  # Steps 2-4
                self._measure_wall += self._stamp(clock) - t0
                self._compile_sum += self._charged_compile(measured)
                if spec_job is not None:
                    # Join before any tell: the optimizer is single-threaded
                    # and the speculation must finish (and restore its
                    # snapshots) before real state advances.
                    speculated = spec_job.result()
                it = iter(measured)
                results = [r if r is not None else next(it) for r in results]
                for config, result in zip(configs, results):
                    self._commit(config, result, tel)  # Step 5
                remaining -= len(configs)
        finally:
            if spec_pool is not None:
                spec_pool.shutdown(wait=True)
            if pool is not None:
                pool.close()
        extra = self._pipeline_stats(pool, tel) if pool is not None else {}
        return self._finish(self._stamp(clock) - t_start, clock is not None, **extra)
