"""SwingEvaluator: simulated measurement with a virtual process clock.

Implements the shared :class:`repro.runtime.measure.Evaluator` interface. Each
``evaluate(params)``:

1. prices the build with the model's compile-time estimate — divided by
   ``compile_parallelism`` (AutoTVM builds candidate batches with a parallel
   builder; ytopt builds one at a time);
2. prices ``number × repeat`` kernel executions with deterministic noise;
3. advances the virtual clock by build + runs + fixed measurement overhead;
4. returns a :class:`MeasureResult` stamped with the virtual elapsed time.

This is what lets the paper's "autotuning process over time" figures (4, 6, 8,
10, 12) be regenerated without the GPU cluster: tuners that dwell on slow
configurations accumulate virtual time exactly as they would real time.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.common.errors import ReproError, SpaceError
from repro.common.timing import VirtualClock
from repro.runtime.measure import Evaluator, MeasureResult
from repro.swing.model import SwingPerformanceModel
from repro.swing.profile import KernelProfile


class SwingEvaluator(Evaluator):
    """Evaluate tile configurations against the analytical Swing model."""

    def __init__(
        self,
        profile: KernelProfile,
        model: SwingPerformanceModel | None = None,
        clock: VirtualClock | None = None,
        number: int = 1,
        repeat: int = 1,
        compile_parallelism: int = 1,
        measure_overhead: float = 0.05,
        timeout: float | None = None,
        cache_builds: bool = False,
    ) -> None:
        if number < 1 or repeat < 1:
            raise ReproError("SwingEvaluator requires number >= 1 and repeat >= 1")
        if compile_parallelism < 1:
            raise ReproError(f"compile_parallelism must be >= 1, got {compile_parallelism}")
        if timeout is not None and timeout <= 0:
            raise ReproError(f"timeout must be positive, got {timeout}")
        self.profile = profile
        self.model = model if model is not None else SwingPerformanceModel()
        self.clock = clock if clock is not None else VirtualClock()
        self.number = number
        self.repeat = repeat
        self.compile_parallelism = compile_parallelism
        self.measure_overhead = measure_overhead
        self.timeout = timeout
        self.n_evaluations = 0
        # Opt-in build memoisation: re-evaluating a configuration (the
        # multi-fidelity promotion top-up) charges zero compile time the
        # second time, as a real artifact cache would. Off by default so the
        # seed tables' time accounting is unchanged.
        self.cache_builds = cache_builds
        self._built: set[tuple[tuple[str, int], ...]] = set()

    def elapsed(self) -> float:
        return self.clock.now

    def evaluate(self, params: Mapping[str, int]) -> MeasureResult:
        cfg = {k: int(v) for k, v in params.items()}
        try:
            compile_t = self.model.compile_time(self.profile, cfg)
        except SpaceError as exc:
            # Invalid configurations still cost the (attempted) build time.
            self.clock.advance(0.5)
            self.n_evaluations += 1
            return MeasureResult(
                config=cfg,
                costs=(),
                compile_time=0.5,
                timestamp=self.clock.now,
                error=f"compile error: {exc}",
            )
        cache_key = tuple(sorted(cfg.items()))
        cache_hit = self.cache_builds and cache_key in self._built
        charged_compile = 0.0 if cache_hit else compile_t / self.compile_parallelism
        self.clock.advance(charged_compile)
        if self.cache_builds:
            self._built.add(cache_key)

        costs: list[float] = []
        timed_out = False
        for rep in range(self.repeat):
            run_times = [
                self.model.measured_time(self.profile, cfg, run_index=rep * self.number + i)
                for i in range(self.number)
            ]
            mean_time = sum(run_times) / len(run_times)
            if self.timeout is not None and mean_time > self.timeout:
                # The runner kills the kernel after the timeout; charge it.
                self.clock.advance(self.timeout)
                timed_out = True
                break
            self.clock.advance(sum(run_times))
            costs.append(mean_time)
        self.clock.advance(self.measure_overhead)
        self.n_evaluations += 1

        extra = {"charged_compile": charged_compile}
        if timed_out:
            return MeasureResult(
                config=cfg,
                costs=(),
                compile_time=compile_t,
                timestamp=self.clock.now,
                error=f"timeout after {self.timeout:.1f}s",
                extra=extra,
                backend="swing",
            )
        if cache_hit:
            extra["cache_hit"] = 1.0
        return MeasureResult(
            config=cfg,
            costs=tuple(costs),
            compile_time=compile_t,
            timestamp=self.clock.now,
            extra=extra,
            backend="swing",
        )
