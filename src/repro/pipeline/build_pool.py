"""Bounded thread pool of ahead-of-time kernel builds (compile-ahead).

Native-tier builds shell out to the C compiler (``subprocess.run`` releases
the GIL), so a thread pool genuinely parallelizes them; the artifacts land
in the native tier's content-addressed caches (the on-disk ``.so`` store and
the process-wide entry cache), which is where the later measurement finds
them. Workers run with telemetry pinned off — the event bus and its sinks
are not thread-safe — and the pool aggregates its own counters instead:
occupancy high-water mark, busy-seconds, speculation hits/misses, and the
seconds the tuning loop spent blocked on an unfinished build.
"""

from __future__ import annotations

import os
import threading
import time
from collections.abc import Iterable, Mapping
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any

from repro.common.errors import TuningError
from repro.telemetry.context import NULL_TELEMETRY, scoped_telemetry


def default_compile_jobs() -> int:
    """Build-pool width for this machine (cores, capped at 8)."""
    return max(1, min(os.cpu_count() or 1, 8))


def config_key(config: Any) -> bytes:
    """Canonical in-flight dedup key for a configuration.

    Uses the encoded array for :class:`~repro.configspace.Configuration`
    (injective per hyperparameter) and falls back to sorted items for plain
    mappings.
    """
    get_array = getattr(config, "get_array", None)
    if callable(get_array):
        return get_array().tobytes()
    if isinstance(config, Mapping):
        return repr(sorted((str(k), int(v)) for k, v in config.items())).encode()
    raise TuningError(f"cannot key configuration of type {type(config).__name__}")


def _params(config: Any) -> dict:
    get_dict = getattr(config, "get_dictionary", None)
    return dict(get_dict()) if callable(get_dict) else dict(config)


class BuildPool:
    """Fan kernel builds out to ``jobs`` threads, deduplicated by config key.

    ``precompiler`` is the evaluator's ``precompile`` method (or None, which
    disables the pool — every method degenerates to a no-op). The executor is created lazily on first submit and torn down
    by :meth:`close`.
    """

    def __init__(self, precompiler, jobs: int) -> None:
        if jobs < 1:
            raise TuningError(f"build pool jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self._precompiler = precompiler
        self._executor: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()
        self._futures: dict[bytes, Future] = {}
        self._active = 0
        self.submitted = 0
        self.completed = 0
        self.failures = 0
        self.speculative = 0
        self.spec_hits = 0
        self.spec_misses = 0
        #: Busy-time integral: worker-seconds spent inside builds (sums
        #: across threads, so it can exceed wall time — that excess *is* the
        #: parallelism win).
        self.busy_seconds = 0.0
        #: Seconds the loop blocked in :meth:`wait` on unfinished builds —
        #: the critical-path compile stall that survived pipelining.
        self.wait_seconds = 0.0
        self.occupancy_peak = 0

    @property
    def enabled(self) -> bool:
        return self._precompiler is not None

    def _ensure_executor(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.jobs, thread_name_prefix="repro-build"
            )
        return self._executor

    def _build(self, params: dict) -> bool:
        with self._lock:
            self._active += 1
            self.occupancy_peak = max(self.occupancy_peak, self._active)
        t0 = time.perf_counter()
        ok = False
        try:
            with scoped_telemetry(NULL_TELEMETRY):
                ok = bool(self._precompiler(params))
            return ok
        finally:
            elapsed = time.perf_counter() - t0
            with self._lock:
                self._active -= 1
                self.completed += 1
                self.busy_seconds += elapsed
                if not ok:
                    self.failures += 1

    # -- loop-facing API (loop thread + the speculation side thread) ---------

    def submit(self, config: Any, speculative: bool = False) -> bool:
        """Queue one ahead-of-time build; returns True if newly queued.

        In-flight and already-queued keys are deduplicated — a speculative
        build that turns out to be wave k+1's real candidate is simply waited
        on (the spec-hit fast path)."""
        if not self.enabled:
            return False
        key = config_key(config)
        with self._lock:
            if key in self._futures:
                return False
            future = self._ensure_executor().submit(self._build, _params(config))
            self._futures[key] = future
            self.submitted += 1
            if speculative:
                self.speculative += 1
        return True

    def wait(self, configs: Iterable[Any]) -> float:
        """Block until the builds for ``configs`` finish; returns the seconds
        spent blocked. Finished futures are dropped — the artifacts live in
        the evaluator's caches, not here."""
        if not self.enabled:
            return 0.0
        t0 = time.perf_counter()
        for config in configs:
            with self._lock:
                future = self._futures.pop(config_key(config), None)
            if future is not None:
                future.result()
        elapsed = time.perf_counter() - t0
        with self._lock:
            self.wait_seconds += elapsed
        return elapsed

    def discard(self, configs: Iterable[Any]) -> None:
        """Forget pending builds for configs that will never be measured
        (pruned trials, end of run). The build may still finish in the
        background; its artifact stays harmlessly in the content cache."""
        for config in configs:
            with self._lock:
                self._futures.pop(config_key(config), None)

    def score_speculation(self, speculated: Iterable[Any], actual: Iterable[Any]) -> None:
        """Compare a speculative wave against the real ask that followed.

        Hits stay queued (the real wave waits on them); misses are discarded
        without ever reaching a ``tell``."""
        actual_keys = {config_key(c) for c in actual}
        for config in speculated:
            key = config_key(config)
            with self._lock:
                if key in actual_keys:
                    self.spec_hits += 1
                else:
                    self._futures.pop(key, None)
                    self.spec_misses += 1

    @property
    def hit_rate(self) -> float:
        scored = self.spec_hits + self.spec_misses
        return self.spec_hits / scored if scored else 0.0

    def close(self) -> None:
        executor = self._executor
        self._executor = None
        self._futures.clear()
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "BuildPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
