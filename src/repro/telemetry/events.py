"""Typed telemetry events emitted by the search → build → measure pipeline.

Every event is a plain dataclass with a class-level ``kind`` tag and a
``to_dict()`` serialization used by the JSONL trace sink and the SQLite run
store. Events are *data*, not behaviour: the :class:`~repro.telemetry.bus.EventBus`
stamps each one with an emission wall-clock ``ts`` and fans it out to sinks.

The lifecycle of one tuner run::

    RunStarted
      (SurrogateFitted | CacheHit | CacheMiss | WorkerCrashed | PoolRebuilt
       | SpanClosed | TrialPruned | TrialPromoted | TrialMeasured)*
    RunFinished

``RunStarted``/``RunFinished`` bracket a run and carry the identity key the
run store indexes by — (kernel, size, tuner, seed) — plus reproducibility
metadata (git SHA, package version, platform; see
:func:`repro.telemetry.meta.run_metadata`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any


def make_run_id(kernel: str, size_name: str, tuner: str, seed: int | None) -> str:
    """The natural key of one tuner run in the run store."""
    return f"{kernel}:{size_name}:{tuner}:seed{seed}"


@dataclass
class Event:
    """Base class: ``kind`` tags the concrete type; ``ts`` is stamped by the bus."""

    kind = "event"

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"event": self.kind}
        ts = getattr(self, "ts", None)
        if ts is not None:
            out["ts"] = ts
        for f in dataclasses.fields(self):
            out[f.name] = getattr(self, f.name)
        return out


@dataclass
class RunStarted(Event):
    """A tuner run began (one tuner × one kernel × one problem size)."""

    kind = "run_started"

    run_id: str
    kernel: str
    size_name: str
    tuner: str
    seed: int | None
    max_evals: int
    metadata: dict[str, Any] = field(default_factory=dict)


@dataclass
class TrialMeasured(Event):
    """One configuration was measured (successfully or not).

    ``fidelity`` mirrors :attr:`repro.runtime.measure.MeasureResult.fidelity`:
    ``"full"``, ``"promoted"``, ``"probe"`` (early-terminated estimate), or
    ``"pruned"`` (surrogate estimate, never compiled or run).
    """

    kind = "trial_measured"

    config: dict[str, int]
    runtime: float  # mean kernel cost; FAILED_COST sentinel on failure
    compile_time: float
    elapsed: float  # process clock when the measurement finished
    error: str | None = None
    cache_hit: bool = False
    fidelity: str = "full"
    backend: str = ""  # execution tier that ran the trial ("tensor"/"codegen"/"interp"/"swing")

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def low_fidelity(self) -> bool:
        return self.fidelity in ("probe", "pruned")


@dataclass
class TrialPruned(Event):
    """A candidate was dropped before (or instead of) full measurement.

    ``source`` says which mechanism fired: ``"surrogate"`` — the optimizer's
    prediction lower bound exceeded the incumbent by the prune threshold, so
    compilation was skipped entirely; ``"fidelity"`` — the probe measurement's
    confidence bound showed the candidate cannot be competitive, so the full
    repeat budget was withheld.
    """

    kind = "trial_pruned"

    config: dict[str, int]
    estimate: float  # the cost estimate the trial keeps (probe mean / surrogate mean)
    bound: float  # the lower confidence bound the decision used
    incumbent: float | None  # best trusted cost at decision time
    limit: float  # threshold the bound was compared against
    elapsed: float
    source: str = "fidelity"
    reason: str = ""


@dataclass
class TrialPromoted(Event):
    """A probed candidate was promoted to the full repeat budget."""

    kind = "trial_promoted"

    config: dict[str, int]
    probe_mean: float
    runtime: float  # mean over all repeats after the top-up
    probe_repeats: int
    total_repeats: int
    elapsed: float


@dataclass
class CacheHit(Event):
    """A build-cache lookup reused a compiled artifact."""

    kind = "cache_hit"

    key: str


@dataclass
class CacheMiss(Event):
    """A build-cache lookup found nothing; a fresh compile follows."""

    kind = "cache_miss"

    key: str


@dataclass
class WorkerCrashed(Event):
    """A measurement worker died or hung (``reason``: "crash" or "timeout")."""

    kind = "worker_crashed"

    error: str
    config: dict[str, int] | None = None
    reason: str = "crash"


@dataclass
class PoolRebuilt(Event):
    """The parallel-measurement worker pool was killed and will be rebuilt."""

    kind = "pool_rebuilt"

    reason: str = ""


@dataclass
class BackendSelected(Event):
    """The build ladder settled on an execution tier for a PrimFunc.

    ``requested`` is the preferred tier (``REPRO_BACKEND`` or an explicit
    ``backend=`` argument); ``selected`` is the tier actually built after
    per-function fallback. ``reason`` carries the ``CodegenUnsupported``
    message when a faster tier was skipped.
    """

    kind = "backend_selected"

    func: str
    requested: str
    selected: str
    reason: str = ""


@dataclass
class NativeDisabled(Event):
    """The native C tier turned itself off for the rest of the process.

    Emitted exactly once, on the first failed toolchain probe or compile
    (``REPRO_CC`` pointing nowhere, no cc/gcc/clang on PATH, or the compiler
    rejecting generated source). Every later build falls back to the tensor
    tier without re-warning.
    """

    kind = "native_disabled"

    compiler: str
    reason: str


@dataclass
class SurrogateFitted(Event):
    """The Bayesian optimizer refit its surrogate model."""

    kind = "surrogate_fitted"

    n_samples: int
    wall_time: float = 0.0


@dataclass
class SpanClosed(Event):
    """A tracing span completed (see :mod:`repro.telemetry.spans`)."""

    kind = "span_closed"

    name: str
    wall_time: float
    virtual_time: float | None = None
    depth: int = 0
    parent: str | None = None


@dataclass
class RunFinished(Event):
    """A tuner run completed; carries the numbers the paper's tables report.

    ``overhead`` — when the engine accounted for its stages — breaks the
    run's wall time into compile vs. measure vs. search seconds (the
    ``overhead_breakdown`` column of ``repro report``); see
    :meth:`repro.ytopt.AMBS.run` for the exact definitions.
    """

    kind = "run_finished"

    run_id: str
    best_runtime: float
    best_config: dict[str, int]
    n_evals: int
    total_time: float
    error: str | None = None
    overhead: dict[str, float] | None = None


@dataclass
class PipelineStats(Event):
    """End-of-run counters of the pipelined AMBS loop.

    ``hit_rate`` is the compile-ahead speculation hit rate (hits over scored
    speculations); ``busy_seconds`` the build pool's worker-time integral
    (exceeding wall time is the parallelism win); ``wait_seconds`` the
    critical-path compile stall that survived pipelining; ``refits`` /
    ``refits_skipped`` the surrogate fits performed vs. elided by the refit
    schedule.
    """

    kind = "pipeline_stats"

    jobs: int
    submitted: int
    completed: int
    failures: int
    speculative: int
    spec_hits: int
    spec_misses: int
    hit_rate: float
    busy_seconds: float
    wait_seconds: float
    occupancy_peak: int
    refits: int = 0
    refits_skipped: int = 0
