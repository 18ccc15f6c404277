"""Workloads, metric tables, and NumPy output references of the e2e benchmark.

Importing this module imports only NumPy: ``run.py`` (the parent process)
reads the tables without loading ``repro``, and the reference checks are
written against NumPy alone so they stay independent of the compiler under
test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: "native": BayesianAutotuner + LocalEvaluator on the native C tier;
    #: "swing": TuningSession priced by the Swing model.
    kind: str
    kernel: str
    size: str
    evals: int
    pipeline: bool = False
    compile_jobs: int | None = None
    #: Calls timed when the winner is re-measured by the output check.
    check_repeat: int = 20


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lu-native",
            "compile-bound real tuning run on the native C tier (serial loop, "
            "repro tune defaults): cc and the RF ask both show",
            kind="native",
            kernel="lu",
            size="small",
            evals=60,
        ),
        Workload(
            "3mm-native-pipelined",
            "the same emit/cc layers from 2 build-pool threads with "
            "compile-ahead speculation: pool serialisation or lock contention "
            "shows here only",
            kind="native",
            kernel="3mm",
            size="small",
            evals=60,
            pipeline=True,
            compile_jobs=2,
        ),
        Workload(
            "lu-swing-session",
            "the TuningSession users run (Swing-priced, store + trace sinks): "
            "surrogate-bound, no compile in the loop, deterministic trajectory",
            kind="swing",
            kernel="lu",
            size="large",
            evals=120,
            # The winner check runs the n=2000 kernel, ~0.1 s a call.
            check_repeat=3,
        ),
    )
}

#: Evaluation budget per preset; None keeps each workload's own budget.
PRESET_EVALS = {"full": None, "smoke": 6}

#: End-to-end metrics, untraced reps: name -> (unit, better). The first three
#: are in BENCHMARK.json; the rest are correctness and search-quality gates
#: that only the report and ``--compare`` carry (they are 0, constant, or
#: differ by seed, so they cannot carry a bound).
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "failed_trial_frac": ("ratio", "lower"),
    "output_ok_frac": ("ratio", "higher"),
    "evals_to_5pct": ("evals", "lower"),
    "best_runtime_s": ("s", "lower"),
}

#: Metrics that must not move at all between two sets of runs.
EXACT_GATES = ("failed_trial_frac", "output_ok_frac", "evals_to_5pct", "best_runtime_s")

#: Per-layer metrics from traced reps: name -> (unit, better). Counts are
#: "lower" when less work is better (compiler runs, refits, events).
PER_LAYER = {
    "kernels.schedule_build_s": ("s", "lower"),
    "kernels.schedule_build_calls": ("count", "lower"),
    "tir.lower_s": ("s", "lower"),
    "tir.simplify_s": ("s", "lower"),
    "tir.emit_c_s": ("s", "lower"),
    "tir.emit_c_bytes": ("bytes", "lower"),
    "tir.cc_s": ("s", "lower"),
    "tir.cc_calls": ("count", "lower"),
    "tir.so_built": ("count", "lower"),
    "tir.native_load_s": ("s", "lower"),
    "tir.native_build_calls": ("count", "lower"),
    "runtime.kernel_s": ("s", "lower"),
    "runtime.kernel_calls": ("count", "lower"),
    "runtime.evaluate_s": ("s", "lower"),
    "runtime.precompile_s": ("s", "lower"),
    "runtime.precompile_calls": ("count", "lower"),
    "ytopt.ask_s": ("s", "lower"),
    "ytopt.ask_calls": ("count", "lower"),
    "ytopt.ask_p50_ms": ("ms", "lower"),
    "ytopt.ask_max_ms": ("ms", "lower"),
    "ytopt.tell_s": ("s", "lower"),
    "ytopt.speculate_s": ("s", "lower"),
    "ytopt.fit_s": ("s", "lower"),
    "ytopt.fit_calls": ("count", "lower"),
    "ytopt.predict_s": ("s", "lower"),
    "pipeline.spec_hit_rate": ("ratio", "higher"),
    "pipeline.pool_busy_s": ("s", "lower"),
    "pipeline.pool_occupancy_peak": ("count", "higher"),
    "pipeline.refits": ("count", "lower"),
    "pipeline.refits_skipped": ("count", "higher"),
    "loop.search_s": ("s", "lower"),
    "loop.compile_s": ("s", "lower"),
    "loop.measure_s": ("s", "lower"),
    "swing.evaluate_s": ("s", "lower"),
    "service.session_init_s": ("s", "lower"),
    "telemetry.store_sink_s": ("s", "lower"),
    "telemetry.jsonl_sink_s": ("s", "lower"),
    "telemetry.events": ("count", "lower"),
    "search.evals_to_5pct": ("evals", "lower"),
    "search.time_to_5pct_s": ("s", "lower"),
    "search.best_kernel_us": ("us", "lower"),
    "search.trial_p50_ms": ("ms", "lower"),
    "search.trial_p90_ms": ("ms", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

#: Relative and absolute tolerance of the output check (float64 kernels).
RTOL = ATOL = 1e-10


def _compare(name: str, got: np.ndarray, want: np.ndarray) -> str | None:
    if got.shape != want.shape:
        return f"{name}: shape {got.shape} != reference {want.shape}"
    if np.allclose(got, want, rtol=RTOL, atol=ATOL):
        return None
    err = float(np.max(np.abs(got - want)))
    return f"{name}: max |error| {err:.3g} exceeds rtol=atol={RTOL:g}"


def lu_reference_error(buffers) -> str | None:
    """``[L21, U12, TRAIL, NEW]``: NEW must equal ``TRAIL - L21 @ U12``."""
    l21, u12, trail, new = buffers
    return _compare("lu", new, trail - l21 @ u12)


def threemm_reference_error(buffers) -> str | None:
    """``[A, B, C, D, G]``: G must equal ``(A @ B) @ (C @ D)``."""
    a, b, c, d, g = buffers
    return _compare("3mm", g, (a @ b) @ (c @ d))


REFERENCES = {"lu": lu_reference_error, "3mm": threemm_reference_error}
