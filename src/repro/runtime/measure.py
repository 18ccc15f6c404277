"""Measurement abstractions shared by every tuner (ytopt and AutoTVM alike).

A *schedule builder* is a callable ``params -> (Schedule, [Tensor])`` supplied by a
kernel definition; an :class:`Evaluator` turns a parameter configuration into a
:class:`MeasureResult`. Two implementations exist:

* :class:`LocalEvaluator` (here) — really builds and runs the kernel on the CPU
  executors and measures wall-clock time;
* :class:`repro.swing.SwingEvaluator` — prices the lowered kernel with the
  analytical Swing/A100 model and advances a virtual clock.

Both charge time to a clock object, so "autotuning process time" (the paper's
x-axis) is produced identically for real and simulated measurement.
:func:`evaluate_batch` measures a batch through either: max-of-wave on a
virtual clock, otherwise one :meth:`Evaluator.evaluate` at a time.
"""

from __future__ import annotations

import math
import threading
import time
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.common.errors import ReproError
from repro.common.rng import ensure_rng
from repro.common.timing import VirtualClock
from repro.telemetry.context import EventRecorder, get_telemetry, scoped_telemetry
from repro.telemetry.events import NativeDisabled

if TYPE_CHECKING:
    from repro.te.schedule import Schedule
    from repro.te.tensor import Tensor

ScheduleBuilder = Callable[[Mapping[str, int]], "tuple[Schedule, Sequence[Tensor]]"]

#: Sentinel cost for failed measurements (matches AutoTVM's practice of
#: recording a huge cost rather than dropping the trial).
FAILED_COST = 1.0e10

#: Built configurations a :class:`LocalEvaluator` holds for :meth:`evaluate`
#: at most: room for the wave being measured and a speculated next wave.
PREBUILT_LIMIT = 32


def _config_key(cfg: Mapping[str, int]) -> tuple:
    return tuple(sorted(cfg.items()))


def _describe_error(exc: BaseException) -> str:
    """Error text for MeasureResult: keep ReproError messages bare (they are
    already descriptive), prefix foreign exceptions with their type."""
    if isinstance(exc, ReproError):
        return str(exc)
    return f"{type(exc).__name__}: {exc}"


@dataclass
class MeasureResult:
    """Outcome of evaluating one configuration.

    ``costs`` holds per-repeat kernel runtimes in seconds; ``compile_time`` the
    build cost; ``timestamp`` the process-clock time when the evaluation finished
    (virtual seconds under simulation). ``error`` is None on success.

    ``fidelity`` classifies how the measurement was obtained: ``"full"`` (the
    whole repeat budget, the default), ``"promoted"`` (probe then top-up under
    :class:`~repro.runtime.fidelity.MultiFidelityEvaluator`), ``"probe"``
    (terminated early — costs are a low-fidelity estimate), or ``"pruned"``
    (never measured; ``costs`` carry a surrogate estimate).

    ``backend`` records the execution tier that ran the kernel (``"native"``,
    ``"tensor"``, ``"codegen"``, ``"interp"``; ``"swing"`` for simulated
    measurement; empty when no kernel ran, e.g. compile failures and
    surrogate-pruned trials).
    """

    config: dict[str, int]
    costs: tuple[float, ...]
    compile_time: float
    timestamp: float
    error: str | None = None
    extra: dict[str, float] = field(default_factory=dict)
    fidelity: str = "full"
    backend: str = ""

    @property
    def low_fidelity(self) -> bool:
        """True when the recorded cost is not a full-budget measurement."""
        return self.fidelity in ("probe", "pruned")

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def mean_cost(self) -> float:
        if not self.ok or not self.costs:
            return FAILED_COST
        return float(np.mean(self.costs))

    @property
    def min_cost(self) -> float:
        if not self.ok or not self.costs:
            return FAILED_COST
        return float(np.min(self.costs))


class Evaluator:
    """Interface: evaluate a parameter configuration, charge time to a clock."""

    def evaluate(self, params: Mapping[str, int]) -> MeasureResult:
        raise NotImplementedError

    def elapsed(self) -> float:
        """Process time spent so far (seconds; virtual under simulation)."""
        raise NotImplementedError


class LocalEvaluator(Evaluator):
    """Build and run a kernel for real on the CPU executors.

    Used by tests, the quickstart example, and any experiment small enough to
    execute natively. Input buffers are filled with deterministic random data;
    output buffers are zeroed. ``backend`` pins the starting tier of the
    build ladder for every trial (``"native"``/``"tensor"``/``"codegen"``/
    ``"interp"``; lower tiers still apply as per-function fallback), defaulting
    to the process-wide :func:`~repro.runtime.module.default_backend`.

    ``dispatch_latency`` emulates the paper's measurement regime in wall-clock
    time: on the Swing cluster every trial pays a job-dispatch round trip that
    dwarfs the µs kernel runtime. The latency is slept once per ``evaluate``
    (never in :meth:`precompile`), so pipelined runs can genuinely hide
    compile and surrogate work behind it — which is exactly what the real
    cluster setting allows.
    """

    def __init__(
        self,
        builder: ScheduleBuilder,
        target: str = "llvm",
        number: int = 1,
        repeat: int = 1,
        seed: int | None = 0,
        validate: Callable[[Sequence[np.ndarray]], str | None] | None = None,
        backend: str | None = None,
        dispatch_latency: float = 0.0,
    ) -> None:
        if number < 1 or repeat < 1:
            raise ReproError("LocalEvaluator requires number >= 1 and repeat >= 1")
        if dispatch_latency < 0:
            raise ReproError("LocalEvaluator requires dispatch_latency >= 0")
        self.builder = builder
        self.target = target
        self.number = number
        self.repeat = repeat
        self.seed = seed
        self.validate = validate
        self.backend = backend
        self.dispatch_latency = dispatch_latency
        self._start = time.perf_counter()
        # The compiler (repro.runtime.module and repro.tir) loads with the
        # first LocalEvaluator, not with this module: Swing-priced runs
        # never build a kernel.
        from repro.runtime.module import build

        self._build = build
        #: Configurations :meth:`precompile` built that :meth:`evaluate` has
        #: not taken yet: config key -> (module, argument tensors, the
        #: build's telemetry events).
        self._prebuilt: dict[tuple, tuple] = {}
        #: Events of :meth:`precompile` builds that the next :meth:`evaluate`
        #: emits whichever configuration it takes: the native tier turning
        #: off is news for the run, not for one build.
        self._pending_events: list = []
        self._prebuilt_lock = threading.Lock()

    def elapsed(self) -> float:
        return time.perf_counter() - self._start

    @property
    def builds_native(self) -> bool:
        """True when builds start on the native C tier, a C compiler is
        found, and the tier is on.

        Those builds spend their time in the C compiler, a subprocess that
        releases the GIL, so a build pool runs them in parallel; the other
        tiers build in Python and would only contend for the GIL.
        """
        from repro.runtime.module import starting_tier
        from repro.tir.codegen_c import find_toolchain, native_disabled

        try:
            if starting_tier(self.target, self.backend) != "native":
                return False
            # Cached per process. Without a compiler the first build turns
            # the tier off, on the loop thread, with its warning and event.
            find_toolchain()
        except ReproError:
            return False
        return native_disabled() is None

    def precompile(self, params: Mapping[str, int]) -> bool:
        """Build the kernel for ``params`` without running it (compile-ahead).

        The built module and its argument tensors are held until
        :meth:`evaluate` of the same configuration takes them, so a trial
        the tuning loop built ahead is built once (and its
        ``compile_time`` is only what ``evaluate`` spent taking it). At most
        :data:`PREBUILT_LIMIT` built-but-unmeasured configurations are held
        (a speculation miss is never evaluated); the oldest is dropped
        first. Safe to call from the tuning loop's build-pool threads:
        the held entries and the native tier's caches are lock-protected
        and ``.so`` publication is atomic. The build's telemetry events
        (cache lookups, tier choice) are recorded, not emitted, and
        ``evaluate`` emits them on its own thread when it takes the module,
        so a run reports each measured configuration's build events once,
        wherever it was built. Returns True when the build succeeded; a
        failing build holds nothing and returns False — ``evaluate`` will
        reproduce the failure and record it as the trial's result.
        """
        cfg = {k: int(v) for k, v in params.items()}
        recorder = EventRecorder()
        try:
            with scoped_telemetry(recorder):
                built = self._build_kernel(cfg)
        except Exception:  # noqa: BLE001 — ahead-of-time builds never raise
            built = None
        events = [e for e in recorder.events if not isinstance(e, NativeDisabled)]
        key = _config_key(cfg)
        with self._prebuilt_lock:
            self._pending_events.extend(
                e for e in recorder.events if isinstance(e, NativeDisabled)
            )
            if built is None:
                return False
            self._prebuilt.pop(key, None)
            self._prebuilt[key] = (*built, events)
            while len(self._prebuilt) > PREBUILT_LIMIT:
                del self._prebuilt[next(iter(self._prebuilt))]
        return True

    def _build_kernel(self, cfg: dict[str, int]) -> tuple:
        sched, args = self.builder(cfg)
        return self._build(sched, args, target=self.target, backend=self.backend), args

    def evaluate(self, params: Mapping[str, int]) -> MeasureResult:
        tel = get_telemetry()
        cfg = {k: int(v) for k, v in params.items()}
        if self.dispatch_latency > 0:
            time.sleep(self.dispatch_latency)  # emulated job round trip
        t0 = time.perf_counter()
        try:
            with tel.span("compile"):
                with self._prebuilt_lock:
                    built = self._prebuilt.pop(_config_key(cfg), None)
                    replay, self._pending_events = self._pending_events, []
                if built is not None:
                    mod, args, events = built
                    replay += events
                # Recorded by precompile, on whatever thread it ran.
                for event in replay:
                    tel.emit(event)
                if built is None:
                    mod, args = self._build_kernel(cfg)
        except Exception as exc:  # noqa: BLE001 — any builder/compile failure
            # must become a failed MeasureResult, not kill the whole search;
            # kernels and user builders raise plain Exceptions, not just
            # ReproError.
            return MeasureResult(
                config=cfg,
                costs=(),
                compile_time=time.perf_counter() - t0,
                timestamp=self.elapsed(),
                error=f"compile error: {_describe_error(exc)}",
            )
        compile_time = time.perf_counter() - t0

        rng = ensure_rng(self.seed)
        buffers = [
            rng.standard_normal(t.shape).astype(t.dtype)
            if i < len(args) - 1
            else np.zeros(t.shape, dtype=t.dtype)
            for i, t in enumerate(args)
        ]
        try:
            with tel.span("run"):
                costs = []
                for _ in range(self.repeat):
                    start = time.perf_counter()
                    for _ in range(self.number):
                        mod(*buffers)
                    costs.append((time.perf_counter() - start) / self.number)
                error = self.validate(buffers) if self.validate is not None else None
        except Exception as exc:  # noqa: BLE001 — same isolation as the
            # compile path: a crashing kernel or validator is a failed trial.
            return MeasureResult(
                config=cfg,
                costs=(),
                compile_time=compile_time,
                timestamp=self.elapsed(),
                error=f"runtime error: {_describe_error(exc)}",
                backend=mod.backend,
            )
        return MeasureResult(
            config=cfg,
            costs=tuple(costs),
            compile_time=compile_time,
            timestamp=self.elapsed(),
            error=error,
            backend=mod.backend,
        )


# ---------------------------------------------------------------------------
# Tuner-facing batch dispatch (real and simulated evaluators alike)
# ---------------------------------------------------------------------------


def evaluate_batch(
    evaluator: Evaluator,
    batch: Sequence[Mapping[str, int]],
    jobs: int = 1,
) -> list[MeasureResult]:
    """Measure a batch of configurations through any evaluator.

    * A simulated evaluator (one carrying a ``clock``; e.g.
      :class:`repro.swing.SwingEvaluator`) is emulated: configurations are
      priced individually on a scratch clock that starts at the wave's
      start, then the shared virtual clock advances by the **maximum**
      duration of each wave of ``jobs`` configs — not the sum — which is
      what a ``jobs``-wide measurement fleet would charge to the paper's
      process-time axis.
    * Anything else is evaluated one configuration at a time.
    """
    if jobs < 1:
        raise ReproError(f"evaluate_batch requires jobs >= 1, got {jobs}")
    clock = getattr(evaluator, "clock", None)
    if jobs == 1 or clock is None or len(batch) <= 1:
        return [evaluator.evaluate(params) for params in batch]
    return _simulated_wave_batch(evaluator, batch, jobs, clock)


class _TrialClock(VirtualClock):
    """One trial's clock in a simulated wave.

    It sums the trial's own seconds from zero (:meth:`elapsed`; the wave is
    charged its slowest trial's sum) and reads them as process time from the
    wave's start (:attr:`now`), so what the trial emits while it is priced —
    the multi-fidelity probe and promotion events — carries process time.
    """

    def __init__(self, wave_start: float) -> None:
        super().__init__()
        self.wave_start = wave_start

    @property
    def now(self) -> float:
        return self.wave_start + self._now

    def advance(self, seconds: float) -> float:
        super().advance(seconds)
        return self.now


def _simulated_wave_batch(
    evaluator: Evaluator,
    batch: Sequence[Mapping[str, int]],
    jobs: int,
    clock: VirtualClock,
) -> list[MeasureResult]:
    """Max-of-wave virtual-clock accounting for simulated parallel measurement."""
    results: list[MeasureResult] = []
    n_waves = math.ceil(len(batch) / jobs)
    for w in range(n_waves):
        wave = batch[w * jobs : (w + 1) * jobs]
        wave_results: list[MeasureResult] = []
        durations: list[float] = []
        for params in wave:
            scratch = _TrialClock(clock.now)
            evaluator.clock = scratch
            try:
                wave_results.append(evaluator.evaluate(params))
            finally:
                evaluator.clock = clock
            durations.append(scratch.elapsed())
        clock.advance(max(durations) if durations else 0.0)
        for r in wave_results:
            r.timestamp = clock.now
            r.extra.setdefault("wave_jobs", float(jobs))
        results.extend(wave_results)
    return results
