"""Parallel fault-isolated measurement engine.

:class:`ParallelEvaluator` fans a batch of configurations out over a
``ProcessPoolExecutor`` of worker processes, mirroring AutoTVM's
LocalBuilder/LocalRunner split: each worker compiles its configuration, runs it
``number x repeat`` times under a per-trial wall-clock timeout, and sends the
timings back. Faults are isolated — a worker crash, a hung kernel, a compile
error, or any plain Exception becomes a failed :class:`MeasureResult` carrying
:data:`FAILED_COST` instead of killing the search — with bounded
retry-with-backoff for transient failures (a crashed worker pool is rebuilt and
the configuration re-submitted up to ``max_retries`` times).

Builds are content-cached: a :class:`~repro.runtime.build_cache.BuildCache`
keyed by schedule hash (builder identity + canonicalized configuration +
target) stores the lowered PrimFunc, so duplicate or resumed configurations
skip the lower/simplify pipeline. Hit/miss counters are surfaced in
``MeasureResult.extra``.

The tuner-facing entry point, :func:`~repro.runtime.measure.evaluate_batch`
(re-exported here), dispatches a batch to this evaluator's pool; it lives in
:mod:`repro.runtime.measure` so simulated runs never import this module.
"""

from __future__ import annotations

import signal
import time
from collections.abc import Callable, Mapping, Sequence
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError

import numpy as np

from repro.common.errors import ReproError
from repro.common.rng import ensure_rng
from repro.runtime.build_cache import BuildCache, schedule_key
from repro.runtime.measure import (  # noqa: F401 - evaluate_batch is re-exported
    Evaluator,
    MeasureResult,
    ScheduleBuilder,
    _describe_error,
    evaluate_batch,
)
from repro.runtime.module import build, build_from_primfunc
from repro.telemetry.context import get_telemetry
from repro.telemetry.events import PoolRebuilt, WorkerCrashed

__all__ = ["ParallelEvaluator", "evaluate_batch"]

#: Extra seconds the parent waits beyond the worker's own timeout before it
#: declares the worker hung and rebuilds the pool (covers pool dispatch and
#: result pickling).
PARENT_GRACE = 5.0


class _WorkerTimeout(BaseException):
    """Raised inside a worker when the per-trial watchdog fires.

    Derives from BaseException so the blanket ``except Exception`` isolation
    around compile/run cannot swallow it — it must reach the watchdog handler
    in :func:`_worker_measure` to be reported as a timeout.
    """


def _watchdog_handler(signum, frame):  # pragma: no cover - runs in workers
    raise _WorkerTimeout


def _worker_measure(request: dict) -> dict:
    """Measure one configuration inside a worker process.

    Never raises: every failure mode is folded into the returned payload so
    the pool stays healthy. A per-trial SIGALRM watchdog turns hung builds or
    runs into graceful timeout payloads; truly signal-proof hangs are killed by
    the parent's grace deadline instead.
    """
    timeout = request["timeout"]
    watchdog = timeout is not None and hasattr(signal, "setitimer")
    old_handler = None
    if watchdog:  # pragma: no branch
        old_handler = signal.signal(signal.SIGALRM, _watchdog_handler)
        signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return _measure_payload(request)
    except _WorkerTimeout:
        return {
            "ok": False,
            "costs": (),
            "compile_time": 0.0,
            "error": f"timeout after {timeout:.1f}s",
            "func": None,
            "cache_hit": bool(request.get("cached_func") is not None),
            "timed_out": True,
            "backend": "",
        }
    except BaseException as exc:  # noqa: BLE001 - isolation boundary
        return {
            "ok": False,
            "costs": (),
            "compile_time": 0.0,
            "error": f"worker error: {_describe_error(exc)}",
            "func": None,
            "cache_hit": False,
            "backend": "",
        }
    finally:
        if watchdog:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old_handler)


def _measure_payload(request: dict) -> dict:
    cfg: dict[str, int] = request["config"]
    target: str = request["target"]
    number: int = request["number"]
    repeat: int = request["repeat"]
    seed = request["seed"]
    validate = request["validate"]
    cached_func = request["cached_func"]
    want_func: bool = request["want_func"]

    t0 = time.perf_counter()
    try:
        if cached_func is not None:
            mod = build_from_primfunc(cached_func, target=target)
        else:
            builder: ScheduleBuilder = request["builder"]
            sched, args = builder(cfg)
            mod = build(sched, args, target=target)
    except Exception as exc:  # noqa: BLE001 - compile failures are results
        return {
            "ok": False,
            "costs": (),
            "compile_time": time.perf_counter() - t0,
            "error": f"compile error: {_describe_error(exc)}",
            "func": None,
            "cache_hit": False,
            "backend": "",
        }
    compile_time = time.perf_counter() - t0

    rng = ensure_rng(seed)
    params = mod.func.params
    buffers = [
        rng.standard_normal(buf.shape).astype(buf.dtype)
        if i < len(params) - 1
        else np.zeros(buf.shape, dtype=buf.dtype)
        for i, buf in enumerate(params)
    ]
    try:
        costs = []
        for _ in range(repeat):
            start = time.perf_counter()
            for _ in range(number):
                mod(*buffers)
            costs.append((time.perf_counter() - start) / number)
        error = validate(buffers) if validate is not None else None
    except Exception as exc:  # noqa: BLE001 - runtime failures are results
        return {
            "ok": False,
            "costs": (),
            "compile_time": compile_time,
            "error": f"runtime error: {_describe_error(exc)}",
            "func": None,
            "cache_hit": cached_func is not None,
            "backend": mod.backend,
        }
    return {
        "ok": error is None,
        "costs": tuple(costs),
        "compile_time": compile_time,
        "error": error,
        "func": mod.func if (want_func and cached_func is None) else None,
        "cache_hit": cached_func is not None,
        "backend": mod.backend,
    }


class ParallelEvaluator(Evaluator):
    """Measure configurations in parallel worker processes, faults isolated.

    Parameters
    ----------
    builder:
        ``params -> (Schedule, [Tensor])``; must be picklable (a module-level
        function or a ``functools.partial`` of one), since workers import it.
    jobs:
        Worker-pool width; a batch is measured in waves of this many
        configurations.
    timeout:
        Per-trial wall-clock budget in seconds covering compile plus all runs.
        Enforced twice: a SIGALRM watchdog inside the worker (graceful), and a
        parent-side deadline of ``timeout + PARENT_GRACE`` after which the pool
        is killed and rebuilt (covers signal-proof hangs).
    max_retries:
        How many times a configuration whose worker *crashed* (process death,
        broken pool) is re-submitted before it is recorded as failed. Compile
        and runtime errors are deterministic and never retried; timeouts are
        retried only with ``retry_on_timeout=True``.
    retry_backoff:
        Base sleep between retries; attempt ``k`` waits ``retry_backoff *
        2**(k-1)`` seconds.
    cache:
        A shared :class:`BuildCache`, or None to create a private one. Pass a
        shared instance to carry compiled schedules across evaluators (e.g.
        search resumption).
    """

    def __init__(
        self,
        builder: ScheduleBuilder,
        target: str = "llvm",
        jobs: int = 1,
        number: int = 1,
        repeat: int = 1,
        seed: int | None = 0,
        timeout: float | None = None,
        max_retries: int = 1,
        retry_backoff: float = 0.05,
        retry_on_timeout: bool = False,
        validate: Callable[[Sequence[np.ndarray]], str | None] | None = None,
        cache: BuildCache | None = None,
        use_cache: bool = True,
        mp_context=None,
        parent_grace: float = PARENT_GRACE,
    ) -> None:
        if jobs < 1:
            raise ReproError(f"ParallelEvaluator requires jobs >= 1, got {jobs}")
        if number < 1 or repeat < 1:
            raise ReproError("ParallelEvaluator requires number >= 1 and repeat >= 1")
        if timeout is not None and timeout <= 0:
            raise ReproError(f"timeout must be positive, got {timeout}")
        if max_retries < 0:
            raise ReproError(f"max_retries must be >= 0, got {max_retries}")
        if retry_backoff < 0:
            raise ReproError(f"retry_backoff must be >= 0, got {retry_backoff}")
        self.builder = builder
        self.target = target
        self.jobs = jobs
        self.number = number
        self.repeat = repeat
        self.seed = seed
        self.timeout = timeout
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.retry_on_timeout = retry_on_timeout
        self.validate = validate
        self.cache = cache if cache is not None else BuildCache()
        self.use_cache = use_cache
        if parent_grace < 0:
            raise ReproError(f"parent_grace must be >= 0, got {parent_grace}")
        self.parent_grace = parent_grace
        self._mp_context = mp_context
        self._pool: ProcessPoolExecutor | None = None
        # Per-run cache accounting: the shared cache may predate this
        # evaluator, so results report deltas from this baseline, not the
        # cache's process-lifetime totals.
        self._cache_baseline = self.cache.stats_snapshot()
        self._start = time.perf_counter()
        self.n_evaluations = 0
        self.n_crashes = 0
        self.n_timeouts = 0
        self.n_retries = 0

    # -- lifecycle ---------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=self._mp_context
            )
        return self._pool

    def _kill_pool(self, reason: str = "") -> None:
        """Terminate every worker and discard the pool (hung/crashed state)."""
        pool = self._pool
        self._pool = None
        if pool is None:
            return
        tel = get_telemetry()
        if tel.enabled:
            tel.emit(PoolRebuilt(reason=reason))
        for proc in list(getattr(pool, "_processes", {}).values()):
            try:
                proc.terminate()
            except Exception:  # noqa: BLE001 - already-dead workers
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "ParallelEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:  # noqa: BLE001
            pass

    # -- Evaluator interface -----------------------------------------------

    def elapsed(self) -> float:
        return time.perf_counter() - self._start

    def evaluate(self, params: Mapping[str, int]) -> MeasureResult:
        return self.evaluate_batch([params])[0]

    def precompile(self, params: Mapping[str, int]) -> bool:
        """Lower ``params``'s schedule into the shared build cache ahead of
        measurement (compile-ahead). A later ``evaluate`` of the same
        configuration ships the cached PrimFunc to its worker and skips the
        lower/simplify pipeline — the dominant compile cost. The cache is
        lock-protected, so build-pool threads may call this concurrently.
        Returns True when a lowered function is cached; False when caching is
        off or the build fails (``evaluate`` reproduces and records that)."""
        if not self.use_cache:
            return False
        cfg = {k: int(v) for k, v in params.items()}
        key = schedule_key(cfg, builder=self.builder, target=self.target)
        if self.cache.peek(key) is not None:
            return True
        try:
            sched, args = self.builder(cfg)
            mod = build(sched, args, target=self.target)
        except Exception:  # noqa: BLE001 — ahead-of-time builds never raise
            return False
        self.cache.put(key, mod.func)
        return True

    def evaluate_batch(
        self, batch: Sequence[Mapping[str, int]]
    ) -> list[MeasureResult]:
        """Measure a batch in waves of ``jobs`` configurations.

        Results come back in input order; every configuration gets exactly one
        result, whatever happened to its worker.
        """
        cfgs = [{k: int(v) for k, v in params.items()} for params in batch]
        results: list[MeasureResult | None] = [None] * len(cfgs)
        for wave_start in range(0, len(cfgs), self.jobs):
            indices = range(wave_start, min(wave_start + self.jobs, len(cfgs)))
            self._run_wave(indices, cfgs, results)
        self.n_evaluations += len(cfgs)
        return results  # type: ignore[return-value] - every slot is filled

    # -- internals ---------------------------------------------------------

    def _request(self, cfg: dict[str, int]) -> tuple[dict, str | None]:
        key = None
        cached = None
        want_func = False
        if self.use_cache:
            key = schedule_key(cfg, builder=self.builder, target=self.target)
            cached = self.cache.get(key)
            want_func = cached is None
        return (
            {
                "config": cfg,
                "builder": self.builder,
                "target": self.target,
                "number": self.number,
                "repeat": self.repeat,
                "seed": self.seed,
                "timeout": self.timeout,
                "validate": self.validate,
                "cached_func": cached,
                "want_func": want_func,
            },
            key,
        )

    def _parent_budget(self) -> float | None:
        return None if self.timeout is None else self.timeout + self.parent_grace

    def _cache_extra(self) -> dict[str, float]:
        """Per-run cache counters: deltas from this evaluator's baseline."""
        snap = self.cache.stats_snapshot()
        return {
            "cache_hits": float(snap["hits"] - self._cache_baseline["hits"]),
            "cache_misses": float(snap["misses"] - self._cache_baseline["misses"]),
            "cache_entries": float(snap["entries"]),
        }

    def _finalize(
        self, cfg: dict[str, int], key: str | None, payload: dict
    ) -> MeasureResult:
        if payload.get("timed_out"):
            self.n_timeouts += 1
        if key is not None and payload.get("func") is not None:
            self.cache.put(key, payload["func"])
        extra: dict[str, float] = {"cache_hit": 1.0 if payload["cache_hit"] else 0.0}
        extra.update(self._cache_extra())
        return MeasureResult(
            config=cfg,
            costs=tuple(payload["costs"]),
            compile_time=payload["compile_time"],
            timestamp=self.elapsed(),
            error=payload["error"],
            extra=extra,
            backend=payload.get("backend", ""),
        )

    def _failure(self, cfg: dict[str, int], error: str, retries: int = 0) -> MeasureResult:
        extra: dict[str, float] = {"cache_hit": 0.0, "retries": float(retries)}
        extra.update(self._cache_extra())
        return MeasureResult(
            config=cfg,
            costs=(),
            compile_time=0.0,
            timestamp=self.elapsed(),
            error=error,
            extra=extra,
        )

    def _run_wave(
        self,
        indices: range,
        cfgs: list[dict[str, int]],
        results: list[MeasureResult | None],
    ) -> None:
        requests = {i: self._request(cfgs[i]) for i in indices}
        futures = {}
        broken = False
        try:
            pool = self._ensure_pool()
            for i in indices:
                futures[i] = pool.submit(_worker_measure, requests[i][0])
        except (BrokenExecutor, OSError, RuntimeError):
            broken = True

        for i in indices:
            fut = futures.get(i)
            if fut is None or broken:
                # The pool died before this config got a clean shot: measure it
                # individually (counts as its first attempt).
                results[i] = self._measure_with_retries(requests[i], attempt=0)
                continue
            try:
                payload = fut.result(timeout=self._parent_budget())
            except FuturesTimeoutError:
                self.n_timeouts += 1
                self._emit_worker_fault(
                    f"hung beyond {self._parent_budget():.1f}s", cfgs[i], "timeout"
                )
                self._kill_pool(reason="worker hung")
                broken = True
                if self.retry_on_timeout:
                    results[i] = self._measure_with_retries(requests[i], attempt=1)
                else:
                    results[i] = self._failure(
                        cfgs[i], f"timeout after {self.timeout:.1f}s (worker killed)"
                    )
                continue
            except (BrokenExecutor, EOFError, OSError) as exc:
                # A worker in this wave crashed; every unresolved future is
                # poisoned. Rebuild the pool and retry each config one by one.
                self.n_crashes += 1
                self._emit_worker_fault(_describe_error(exc), cfgs[i], "crash")
                self._kill_pool(reason="worker crashed")
                broken = True
                results[i] = self._measure_with_retries(
                    requests[i], attempt=1, last_error=_describe_error(exc)
                )
                continue
            results[i] = self._finalize(cfgs[i], requests[i][1], payload)

    def _measure_with_retries(
        self,
        request: tuple[dict, str | None],
        attempt: int,
        last_error: str = "worker crashed",
    ) -> MeasureResult:
        """Measure one config in a fresh pool, retrying bounded times."""
        payload_req, key = request
        cfg = payload_req["config"]
        while attempt <= self.max_retries:
            if attempt > 0:
                self.n_retries += 1
                if self.retry_backoff > 0:
                    time.sleep(self.retry_backoff * (2 ** (attempt - 1)))
            try:
                pool = self._ensure_pool()
                fut = pool.submit(_worker_measure, payload_req)
                payload = fut.result(timeout=self._parent_budget())
            except FuturesTimeoutError:
                self.n_timeouts += 1
                self._emit_worker_fault(
                    f"hung beyond {self._parent_budget():.1f}s", cfg, "timeout"
                )
                self._kill_pool(reason="worker hung")
                if not self.retry_on_timeout:
                    return self._failure(
                        cfg,
                        f"timeout after {self.timeout:.1f}s (worker killed)",
                        retries=attempt,
                    )
                last_error = f"timeout after {self.timeout:.1f}s"
                attempt += 1
                continue
            except (BrokenExecutor, EOFError, OSError) as exc:
                self.n_crashes += 1
                self._emit_worker_fault(_describeerror_safe(exc), cfg, "crash")
                self._kill_pool(reason="worker crashed")
                last_error = _describeerror_safe(exc)
                attempt += 1
                continue
            result = self._finalize(cfg, key, payload)
            result.extra["retries"] = float(attempt)
            return result
        return self._failure(
            cfg,
            f"worker crashed after {self.max_retries + 1} attempts: {last_error}",
            retries=self.max_retries,
        )

    def _emit_worker_fault(
        self, error: str, cfg: dict[str, int], reason: str
    ) -> None:
        tel = get_telemetry()
        if tel.enabled:
            tel.emit(WorkerCrashed(error=error, config=cfg, reason=reason))

    def stats(self) -> dict[str, float]:
        """Engine counters (also mirrored into each result's ``extra``)."""
        out = {
            "evaluations": float(self.n_evaluations),
            "crashes": float(self.n_crashes),
            "timeouts": float(self.n_timeouts),
            "retries": float(self.n_retries),
        }
        out.update(self.cache.stats())
        return out


def _describeerror_safe(exc: BaseException) -> str:
    try:
        return _describe_error(exc)
    except Exception:  # noqa: BLE001 - never let diagnostics raise
        return type(exc).__name__
