"""Telemetry & experiment tracking for the autotuning stack.

Five cooperating pieces (the observability shape of a training/inference
stack, applied to autotuning):

* **events + bus** (:mod:`~repro.telemetry.events`, :mod:`~repro.telemetry.bus`)
  — typed events (``RunStarted``, ``TrialMeasured``, ``CacheHit``,
  ``SurrogateFitted``, ``RunFinished``, …) fanned out to
  pluggable sinks; a failing sink is quarantined, never fatal;
* **spans** (:mod:`~repro.telemetry.spans`) — nested compile/measure/fit/
  acquisition tracing charging both wall time and the simulation's
  :class:`~repro.common.timing.VirtualClock`;
* **metrics** (:mod:`~repro.telemetry.metrics`) — counters and histograms
  (evaluations/s, failure rate, cache hit ratio, surrogate fits) aggregated
  from the event stream;
* **sinks** (:mod:`~repro.telemetry.sinks`, :mod:`~repro.telemetry.store`) —
  JSONL trace writer, live console progress, and a SQLite run store keyed by
  (kernel, size, tuner, seed);
* **reporting** (:mod:`~repro.telemetry.report`) — ``repro report`` /
  ``repro compare`` regenerate the paper's tables from the store and diff two
  stores with regression thresholds.

The stack reports to a process-wide context (:func:`get_telemetry`); the
default is a no-op, so instrumentation costs nothing until a
:func:`telemetry_session` is opened.
"""

from repro.telemetry.bus import EventBus, Sink
from repro.telemetry.context import (
    NULL_TELEMETRY,
    EventRecorder,
    NullTelemetry,
    Telemetry,
    get_telemetry,
    scoped_telemetry,
    set_telemetry,
    telemetry_session,
)
from repro.telemetry.events import (
    BackendSelected,
    CacheHit,
    CacheMiss,
    Event,
    NativeDisabled,
    PipelineStats,
    RunFinished,
    RunStarted,
    SpanClosed,
    SurrogateFitted,
    TrialMeasured,
    TrialPromoted,
    TrialPruned,
    make_run_id,
)
from repro.telemetry.meta import git_sha, run_metadata
from repro.telemetry.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    MetricsSink,
    format_metrics_summary,
)
from repro.telemetry.sinks import ConsoleSink, JsonlSink, RecordingSink, event_line
from repro.telemetry.spans import Tracer
from repro.telemetry.store import (
    RunStore,
    StoredEvaluation,
    StoredRun,
    StoreSink,
    resolve_store_paths,
)

__all__ = [
    # context
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "EventRecorder",
    "get_telemetry",
    "scoped_telemetry",
    "set_telemetry",
    "telemetry_session",
    # bus + events
    "EventBus",
    "Sink",
    "Event",
    "RunStarted",
    "TrialMeasured",
    "TrialPruned",
    "TrialPromoted",
    "BackendSelected",
    "CacheHit",
    "CacheMiss",
    "NativeDisabled",
    "PipelineStats",
    "SurrogateFitted",
    "SpanClosed",
    "RunFinished",
    "make_run_id",
    # spans + metrics
    "Tracer",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "MetricsSink",
    "format_metrics_summary",
    # sinks + store
    "ConsoleSink",
    "JsonlSink",
    "RecordingSink",
    "event_line",
    "RunStore",
    "StoreSink",
    "StoredRun",
    "StoredEvaluation",
    "resolve_store_paths",
    # metadata
    "run_metadata",
    "git_sha",
]
