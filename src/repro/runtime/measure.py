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
"""

from __future__ import annotations

import time
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import ReproError
from repro.common.rng import ensure_rng
from repro.te.schedule import Schedule
from repro.te.tensor import Tensor
from repro.runtime.module import build
from repro.telemetry.context import get_telemetry

ScheduleBuilder = Callable[[Mapping[str, int]], tuple[Schedule, Sequence[Tensor]]]

#: Sentinel cost for failed measurements (matches AutoTVM's practice of
#: recording a huge cost rather than dropping the trial).
FAILED_COST = 1.0e10


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

    def elapsed(self) -> float:
        return time.perf_counter() - self._start

    def precompile(self, params: Mapping[str, int]) -> bool:
        """Build the kernel for ``params`` without running it (compile-ahead).

        Warms the native tier's content-addressed caches: the expensive
        subprocess C compile lands in the on-disk ``.so`` store and the
        process-wide entry cache, so the build step of a later
        :meth:`evaluate` of the same configuration degenerates to a cache
        hit. Safe to call from the pipelined loop's build-pool
        threads: the underlying caches are lock-protected and ``.so``
        publication is atomic. Returns True when the build succeeded; a
        failing build returns False and is otherwise swallowed — ``evaluate``
        will reproduce the failure and record it as the trial's result.
        """
        cfg = {k: int(v) for k, v in params.items()}
        try:
            sched, args = self.builder(cfg)
            build(sched, args, target=self.target, backend=self.backend)
        except Exception:  # noqa: BLE001 — ahead-of-time builds never raise
            return False
        return True

    def evaluate(self, params: Mapping[str, int]) -> MeasureResult:
        tel = get_telemetry()
        cfg = {k: int(v) for k, v in params.items()}
        if self.dispatch_latency > 0:
            time.sleep(self.dispatch_latency)  # emulated job round trip
        t0 = time.perf_counter()
        try:
            with tel.span("compile"):
                sched, args = self.builder(cfg)
                mod = build(sched, args, target=self.target, backend=self.backend)
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
