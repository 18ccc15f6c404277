"""TuningSession: one tuner run as a first-class object.

Historically one run was a pile of locals inside
``repro.experiments.runner.run_tuner``. The tuning service needs many runs in
flight at once, each with its *own* evaluator (own virtual clock), its own
optimizer, and its own telemetry handles (shard run store, JSONL trace, live
event stream) — so the machinery now lives here, owned by a
:class:`TuningSession`:

* **evaluator** — a fresh :class:`~repro.swing.SwingEvaluator` (wrapped for
  multi-fidelity when requested), guarded by :class:`GuardedEvaluator` for
  cooperative cancellation and fault injection;
* **search** — one :class:`~repro.ytopt.AMBS` loop over the tuner family's
  optimizer: the ytopt :class:`~repro.core.framework.BayesianAutotuner`
  (which owns the BO optimizer) or an AutoTVM strategy;
* **store handles** — when the session is given sink targets it builds its own
  :class:`~repro.telemetry.Telemetry` (StoreSink → per-session shard DB,
  JsonlSink → trace, any extra sinks) and installs it **context-locally**
  (:func:`~repro.telemetry.context.scoped_telemetry`) for the duration of
  :meth:`run`, so concurrent sessions in one process never see each other's
  events. With no sink targets the session reports to the ambient telemetry,
  which keeps ``repro tune``'s behaviour byte-identical.

Sessions are single-use: construct, :meth:`run` once, done. Cancellation is
cooperative — :meth:`cancel` flips an event the guarded evaluator checks
before every measurement, raising :class:`SessionCancelled` between trials so
the shard is never left mid-write (the store sink only commits a run on
``RunFinished``, which a cancelled session never emits).
"""

from __future__ import annotations

import threading
import time
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.bench.protocols import PAPER_XGB_TRIAL_CAP, TunerContext
from repro.bench.registry import get_tuner
from repro.common.errors import ServiceError, TuningError
from repro.common.timing import VirtualClock
from repro.configspace import space_hash
from repro.kernels.registry import KernelBenchmark, get_benchmark
from repro.runtime.measure import Evaluator
from repro.service.jobs import JobRejected, JobSpec
from repro.swing import SwingEvaluator, SwingPerformanceModel
from repro.telemetry.bus import Sink
from repro.telemetry.context import Telemetry, get_telemetry, scoped_telemetry
from repro.telemetry.events import Event, RunFinished, RunStarted, make_run_id
from repro.telemetry.meta import run_metadata
from repro.telemetry.sinks import JsonlSink
from repro.telemetry.store import RunStore, StoreSink

if TYPE_CHECKING:
    from repro.ytopt.warmstart import WarmStart

#: Display names, matching the paper's figure legends. Experiments and the
#: golden report tables default to exactly these five; the bench registry
#: (:func:`repro.bench.tuner_names`) lists these plus the newer families.
ALL_TUNERS = (
    "ytopt",
    "AutoTVM-Random",
    "AutoTVM-GridSearch",
    "AutoTVM-GA",
    "AutoTVM-XGB",
)


class SessionCancelled(ServiceError):
    """The session was cancelled between evaluations (quota, shutdown, user)."""


class InjectedFault(RuntimeError):
    """A test-battery fault fired (deliberately *not* a ReproError, so it

    propagates like a genuine worker crash instead of being absorbed as a
    failed measurement)."""


@dataclass
class TunerRun:
    """One tuner's full autotuning run."""

    tuner: str
    kernel: str
    size_name: str
    best_config: dict[str, int]
    best_runtime: float
    n_evals: int
    total_time: float
    #: (process time at completion, measured runtime) per evaluation.
    trajectory: list[tuple[float, float]] = field(default_factory=list)
    #: Stage accounting (compile/measure/search seconds) when the engine
    #: tracked it; surfaced as the ``overhead_breakdown`` report column.
    #: Real-clock timings, so deliberately NOT part of ``to_payload`` — the
    #: payload is the deterministic contract two reruns compare byte-for-byte.
    overhead: "dict[str, float] | None" = None

    def best_so_far(self) -> list[float]:
        out: list[float] = []
        cur = float("inf")
        for _, rt in self.trajectory:
            cur = min(cur, rt)
            out.append(cur)
        return out

    def to_payload(self) -> dict[str, Any]:
        """The JSON-safe run summary shared by ``repro tune --json``,
        ``repro submit --wait``, and ``repro status`` (infinite runtimes map
        to null)."""
        import math

        return {
            "tuner": self.tuner,
            "kernel": self.kernel,
            "size": self.size_name,
            "best_runtime": self.best_runtime,
            "best_config": self.best_config,
            "n_evals": self.n_evals,
            "total_time": self.total_time,
            "trajectory": [
                [round(t, 6), rt if math.isfinite(rt) else None]
                for t, rt in self.trajectory
            ],
        }


class FaultInjector:
    """Deterministic fault injection for the service test battery.

    Driven by a :class:`~repro.service.jobs.JobSpec` ``fault`` directive::

        {"mode": "crash",  "at_eval": 3, "attempts": 1}   # raise InjectedFault
        {"mode": "slow",   "per_eval": 0.05}              # wall-clock stall
        {"mode": "cancel", "at_eval": 3}                  # self-cancel

    ``at_eval`` is the 1-based evaluation index the fault fires at; ``attempts``
    limits a crash to the session's first N attempts, so a retried session
    (``attempt`` > attempts) runs clean and proves retry correctness. The
    ``"sink"`` mode is handled at session level (a sink that raises on every
    event), not here.
    """

    MODES = ("crash", "slow", "cancel", "sink")

    def __init__(self, fault: "Mapping[str, Any] | None", attempt: int = 1) -> None:
        self.fault = dict(fault) if fault else None
        self.attempt = attempt
        if self.fault is not None:
            mode = self.fault.get("mode")
            if mode not in self.MODES:
                raise ServiceError(
                    f"unknown fault mode {mode!r}; known: {', '.join(self.MODES)}"
                )

    def before_evaluate(self, session: "TuningSession", eval_index: int) -> None:
        """Called by the guarded evaluator before each measurement."""
        if self.fault is None:
            return
        mode = self.fault["mode"]
        if mode == "slow":
            time.sleep(float(self.fault.get("per_eval", 0.05)))
        elif mode == "crash":
            if eval_index == int(self.fault.get("at_eval", 1)) and self.attempt <= int(
                self.fault.get("attempts", 1)
            ):
                raise InjectedFault(
                    f"injected crash at evaluation {eval_index} "
                    f"(attempt {self.attempt})"
                )
        elif mode == "cancel":
            if eval_index == int(self.fault.get("at_eval", 1)):
                session.cancel("injected self-cancel")


class _CrashingSink(Sink):
    """A sink that fails on every event (the crashed-sink fault mode)."""

    def handle(self, event: Event) -> None:
        raise OSError("injected sink crash")


class GuardedEvaluator(Evaluator):
    """Wrap any evaluator with a per-measurement session checkpoint.

    Before every ``evaluate`` the guard lets the session fire injected faults
    and honour a pending cancellation — the cooperative preemption point that
    makes quota enforcement and clean shutdown possible without killing
    threads mid-write.

    Attribute access and writes are forwarded to the wrapped evaluator (the
    same proxy idiom as :class:`~repro.runtime.fidelity.MultiFidelityEvaluator`),
    so measurement-semantics knobs like ``number``/``repeat``/``clock`` behave
    as if the guard were not there. :func:`repro.runtime.measure.evaluate_batch`
    measures a batch one guarded ``evaluate`` at a time (max-of-wave
    accounting on the virtual clock), so the session checks once per
    evaluation, however wide the wave.
    """

    #: Attribute writes forwarded to the wrapped evaluator.
    _FORWARD = frozenset(
        {"number", "repeat", "compile_parallelism", "clock", "seed", "timeout",
         "validate", "cache_builds"}
    )

    def __init__(self, inner: Evaluator, session: "TuningSession") -> None:
        object.__setattr__(self, "_inner", inner)
        object.__setattr__(self, "_session", session)

    def __getattr__(self, name: str):
        inner = self.__dict__.get("_inner")
        if inner is None:
            raise AttributeError(name)
        return getattr(inner, name)

    def __setattr__(self, name: str, value) -> None:
        inner = self.__dict__.get("_inner")
        if inner is not None and name in self._FORWARD:
            setattr(inner, name, value)
        else:
            object.__setattr__(self, name, value)

    def elapsed(self) -> float:
        return self._inner.elapsed()

    def evaluate(self, params: Mapping[str, int]):
        self._session._checkpoint()
        return self._inner.evaluate(params)


def make_evaluator(
    benchmark: KernelBenchmark,
    for_autotvm: bool,
    model: SwingPerformanceModel | None,
    seed: int,
    timeout: float | None = None,
    repeats: int = 1,
) -> SwingEvaluator:
    """A fresh simulated evaluator with its own virtual clock.

    AutoTVM keeps its default measurement semantics: 8 builders compile a
    wave in parallel (each trial is charged 1/8 of its compile time) and the
    runner averages ``number=3`` kernel executions per measurement. ytopt
    builds and runs each configuration once. The AutoTVM wave of 8 and its
    0.5 s overhead are set by :func:`repro.bench.tuners.autotvm_search`.
    """
    return SwingEvaluator(
        benchmark.profile,
        model=model
        if model is not None
        else SwingPerformanceModel(seed_tag=f"swing-v1-seed{seed}"),
        clock=VirtualClock(),
        number=3 if for_autotvm else 1,
        repeat=repeats,
        compile_parallelism=8 if for_autotvm else 1,
        timeout=timeout,
    )


class TuningSession:
    """One tuner run, owning its evaluator + optimizer + store handles."""

    def __init__(
        self,
        spec: JobSpec,
        benchmark: KernelBenchmark | None = None,
        model: SwingPerformanceModel | None = None,
        xgb_trial_cap: int | None = PAPER_XGB_TRIAL_CAP,
        store_path: "str | None" = None,
        trace_path: "str | None" = None,
        extra_sinks: "tuple[Sink, ...] | list[Sink]" = (),
        attempt: int = 1,
    ) -> None:
        # The admission rules `repro submit` applies, raised as TuningError.
        try:
            spec.validate()
        except JobRejected as exc:
            raise TuningError(str(exc)) from None
        tuner_spec = get_tuner(spec.tuner)
        self.spec = spec
        self.attempt = attempt
        self.benchmark = (
            benchmark if benchmark is not None else get_benchmark(spec.kernel, spec.size)
        )
        #: Identity the run is stored/displayed under — the spec label when
        #: given (A/B variants of one tuner in one store), else the tuner.
        self.display_tuner = spec.label if spec.label else spec.tuner
        self.run_id = make_run_id(
            self.benchmark.kernel, self.benchmark.size_name, self.display_tuner,
            spec.seed,
        )
        self.xgb_trial_cap = xgb_trial_cap
        self._fault = FaultInjector(spec.fault, attempt=attempt)
        self._cancel_event = threading.Event()
        self._cancel_reason: str | None = None
        self._eval_count = 0
        self._finished = False

        # -- the session's own measurement stack ---------------------------
        inner: Evaluator = make_evaluator(
            self.benchmark,
            for_autotvm=tuner_spec.family == "autotvm",
            model=model,
            seed=spec.seed,
            timeout=spec.timeout,
            repeats=spec.repeats,
        )
        self.clock = inner.clock
        if spec.probe_repeats is not None:
            from repro.runtime.fidelity import AdaptiveRepeatPolicy, MultiFidelityEvaluator

            inner = MultiFidelityEvaluator(
                inner,
                policy=AdaptiveRepeatPolicy(
                    probe_repeats=spec.probe_repeats,
                    promote_margin=spec.promote_margin,
                ),
            )
        self.evaluator: Evaluator = GuardedEvaluator(inner, self)

        self.warm_start: WarmStart | None = None
        if spec.warm_start_db is not None and tuner_spec.family == "bo":
            from repro.ytopt.warmstart import WarmStart

            self.warm_start = WarmStart.from_store(
                spec.warm_start_db,
                self.benchmark.kernel,
                self.benchmark.size_name,
                self.benchmark.config_space(seed=spec.seed),
            )

        self.transfer_seed = None
        if spec.transfer_from is not None and tuner_spec.supports_transfer:
            # Imported lazily: repro.transfer pulls in the meta-surrogate
            # stack, which plain (non-transfer) sessions never need.
            from repro.transfer import MetaSurrogate, TransferSeed

            meta, _corpus = MetaSurrogate.fit_or_load(
                spec.transfer_from,
                exclude=(self.benchmark.kernel, self.benchmark.size_name),
                seed=spec.seed,
            )
            self.transfer_seed = TransferSeed(
                meta,
                self.benchmark.kernel,
                self.benchmark.size_name,
                seed=spec.seed,
            )

        # -- the session's own search stack --------------------------------
        # Built by the registered tuner family's factory (repro.bench):
        # .autotuner is the search (a BayesianAutotuner, or the AMBS loop
        # over an AutoTVM strategy), .optimizer what it asks and tells.
        self.autotuner = tuner_spec.factory(
            TunerContext(
                benchmark=self.benchmark,
                evaluator=self.evaluator,
                spec=spec,
                warm_start=self.warm_start,
                transfer_seed=self.transfer_seed,
                xgb_trial_cap=xgb_trial_cap,
            )
        )
        self.optimizer = self.autotuner.optimizer

        # -- the session's own telemetry / store handles --------------------
        self.store: RunStore | None = None
        self.telemetry: Telemetry | None = None
        sinks: list[Sink] = list(extra_sinks)
        if spec.fault is not None and spec.fault.get("mode") == "sink":
            sinks.append(_CrashingSink())
        if store_path is not None:
            self.store = RunStore(store_path)
            sinks.append(StoreSink(self.store))
        if trace_path is not None:
            sinks.append(JsonlSink(trace_path))
        if sinks:
            self.telemetry = Telemetry(sinks=sinks)

    # -- cancellation / fault checkpoints ----------------------------------

    def cancel(self, reason: str = "cancelled") -> None:
        """Request cooperative cancellation; takes effect before the next
        measurement (thread-safe, callable from watchdogs and signal paths)."""
        self._cancel_reason = reason
        self._cancel_event.set()

    @property
    def cancelled(self) -> bool:
        return self._cancel_event.is_set()

    def _checkpoint(self) -> None:
        self._eval_count += 1
        self._fault.before_evaluate(self, self._eval_count)
        if self._cancel_event.is_set():
            raise SessionCancelled(
                f"session {self.run_id} cancelled: {self._cancel_reason}"
            )

    # -- running ------------------------------------------------------------

    def run(self) -> TunerRun:
        """Execute the session once; returns the completed TunerRun.

        With session-owned telemetry the run reports *only* to it (installed
        context-locally); otherwise the ambient telemetry applies. Owned sinks
        (shard store, trace) are closed on the way out, success or not.
        """
        if self._finished:
            raise ServiceError(f"session {self.run_id} already ran (single-use)")
        self._finished = True
        if self._cancel_event.is_set():
            raise SessionCancelled(
                f"session {self.run_id} cancelled: {self._cancel_reason}"
            )
        try:
            if self.telemetry is not None:
                with scoped_telemetry(self.telemetry):
                    return self._run_instrumented()
            return self._run_instrumented()
        finally:
            if self.telemetry is not None:
                self.telemetry.close()

    def _run_instrumented(self) -> TunerRun:
        tel = get_telemetry()
        spec = self.spec
        if tel.enabled:
            tel.emit(
                RunStarted(
                    run_id=self.run_id,
                    kernel=self.benchmark.kernel,
                    size_name=self.benchmark.size_name,
                    tuner=self.display_tuner,
                    seed=spec.seed,
                    max_evals=spec.max_evals,
                    metadata=run_metadata(
                        seed=spec.seed,
                        extra={
                            **spec.recorded_knobs(),
                            "xgb_trial_cap": self.xgb_trial_cap
                            if spec.tuner == "AutoTVM-XGB"
                            else None,
                            "space_hash": space_hash(
                                self.benchmark.config_space(seed=spec.seed)
                            ),
                            "warm_start": len(self.warm_start)
                            if self.warm_start is not None
                            else None,
                            "transfer": self.transfer_seed.summary()
                            if self.transfer_seed is not None
                            else None,
                        },
                    ),
                )
            )
        with tel.span("tuner_run", clock=self.clock):
            run = self._run_inner()
        if tel.enabled:
            tel.emit(
                RunFinished(
                    run_id=self.run_id,
                    best_runtime=run.best_runtime,
                    best_config=run.best_config,
                    n_evals=run.n_evals,
                    total_time=run.total_time,
                    overhead=run.overhead,
                )
            )
        return run

    def _run_inner(self) -> TunerRun:
        result = self.autotuner.run()
        return TunerRun(
            tuner=self.display_tuner,
            kernel=self.benchmark.kernel,
            size_name=self.benchmark.size_name,
            best_config=result.best_config,
            best_runtime=result.best_runtime,
            n_evals=result.n_evals,
            total_time=result.total_elapsed,
            trajectory=result.database.trajectory(),
            overhead=result.overhead,
        )
