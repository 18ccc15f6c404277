"""The active telemetry context: one object the whole stack reports to.

Instrumented code (search loops, measurers, the build cache, the build ladder)
never threads a telemetry parameter through its layers. Instead it asks for
the process-wide active context::

    tel = get_telemetry()
    if tel.enabled:
        tel.emit(TrialMeasured(...))
    with tel.span("measure", clock=clock):
        ...

By default the active context is :data:`NULL_TELEMETRY`: ``enabled`` is False,
``emit`` is a no-op, and ``span`` returns a shared null context manager — the
disabled path costs one attribute check, which is what keeps ``--no-telemetry``
trajectories byte-identical and the overhead budget intact. Telemetry never
touches RNG state or the virtual clock, so enabling it cannot perturb a search.

:func:`telemetry_session` installs a real :class:`Telemetry` for the duration
of a ``with`` block and closes its sinks on exit.

Two installation scopes exist:

* :func:`set_telemetry` / :func:`telemetry_session` — the **process-wide
  default**, what the CLI installs around a run; every thread sees it.
* :func:`scoped_telemetry` — a **context-local override** (a
  :class:`contextvars.ContextVar`), what the tuning service installs inside
  each session worker thread. Overrides shadow the process default only in
  the context (thread / asyncio task) that set them, so concurrent
  :class:`~repro.service.session.TuningSession` threads each report to their
  own isolated bus/metrics/store without seeing each other's events.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from typing import Iterator

from repro.telemetry.bus import EventBus, Sink
from repro.telemetry.events import Event
from repro.telemetry.metrics import MetricsRegistry, MetricsSink
from repro.telemetry.spans import Tracer


class Telemetry:
    """Bundle of event bus + tracer + metrics registry."""

    enabled = True

    def __init__(
        self,
        sinks: "list[Sink] | tuple[Sink, ...]" = (),
        bus: EventBus | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.bus = bus if bus is not None else EventBus()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.bus.subscribe(MetricsSink(self.metrics))
        for sink in sinks:
            self.bus.subscribe(sink)
        self.tracer = Tracer(emit=self.bus.emit)

    def emit(self, event: Event) -> None:
        self.bus.emit(event)

    def span(self, name: str, clock=None):
        return self.tracer.span(name, clock=clock)

    def close(self) -> None:
        self.bus.close()


class _NullSpan:
    """A reusable no-op context manager (the disabled-span fast path)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTelemetry:
    """The disabled context: every operation is a no-op."""

    enabled = False

    def emit(self, event: Event) -> None:
        pass

    def span(self, name: str, clock=None) -> _NullSpan:
        return _NULL_SPAN

    def close(self) -> None:
        pass


NULL_TELEMETRY = NullTelemetry()


class EventRecorder:
    """An enabled context that keeps the events emitted under it, to be
    emitted on another bus later; spans are no-ops.

    A build on a build-pool thread runs under one (see
    :meth:`repro.runtime.measure.LocalEvaluator.precompile`), and the tuning
    loop replays its events when it takes the built module.
    """

    enabled = True

    def __init__(self) -> None:
        self.events: list[Event] = []

    def emit(self, event: Event) -> None:
        self.events.append(event)

    def span(self, name: str, clock=None) -> _NullSpan:
        return _NULL_SPAN


#: The process-wide default (set_telemetry / telemetry_session).
_active: "Telemetry | NullTelemetry" = NULL_TELEMETRY

#: Context-local override (scoped_telemetry); None means "no override, use
#: the process default". New threads start with an empty context, so an
#: override never leaks across threads.
_scoped: "contextvars.ContextVar[Telemetry | NullTelemetry | None]" = (
    contextvars.ContextVar("repro_telemetry_scope", default=None)
)


def get_telemetry() -> "Telemetry | NullTelemetry":
    """The currently active telemetry context (NULL_TELEMETRY if none).

    A :func:`scoped_telemetry` override in the calling context wins; otherwise
    the process-wide default installed by :func:`set_telemetry` applies.
    """
    scoped = _scoped.get()
    if scoped is not None:
        return scoped
    return _active


def set_telemetry(telemetry: "Telemetry | NullTelemetry | None") -> "Telemetry | NullTelemetry":
    """Install a new process-wide default context; returns the previous one."""
    global _active
    previous = _active
    _active = telemetry if telemetry is not None else NULL_TELEMETRY
    return previous


@contextmanager
def scoped_telemetry(
    telemetry: "Telemetry | NullTelemetry | None",
) -> Iterator["Telemetry | NullTelemetry"]:
    """Override the active context for this thread/task only.

    Unlike :func:`telemetry_session` this neither touches the process-wide
    default nor closes the telemetry on exit — the caller owns the object's
    lifecycle. Passing None pins the block to disabled telemetry even when a
    process-wide default is installed.
    """
    active = telemetry if telemetry is not None else NULL_TELEMETRY
    token = _scoped.set(active)
    try:
        yield active
    finally:
        _scoped.reset(token)


@contextmanager
def telemetry_session(
    telemetry: "Telemetry | NullTelemetry | None",
) -> Iterator["Telemetry | NullTelemetry"]:
    """Activate ``telemetry`` for the block; restore and close on exit.

    Passing None runs the block with telemetry disabled (the
    ``--no-telemetry`` path)."""
    active = telemetry if telemetry is not None else NULL_TELEMETRY
    previous = set_telemetry(active)
    try:
        yield active
    finally:
        set_telemetry(previous)
        active.close()
