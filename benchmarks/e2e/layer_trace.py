"""Span recorder and the layer wrappers of the e2e benchmark.

Layers are timed from outside the program: :func:`install` replaces public
functions at the call sites the program actually uses. ``build`` in
``repro.runtime.module`` calls ``lower``, ``simplify_func`` and
``build_callable_native`` through its own module globals, so those are wrapped
there, not in ``repro.tir``. ``codegen_c`` and ``compile_source`` are called
through the globals of the ``repro.tir.codegen_c`` *module*; it is fetched from
``sys.modules`` because the attribute ``repro.tir.codegen_c`` is the
re-exported function.

Each span records an id, the id of the enclosing span on the same thread (a
thread-local stack, so build-pool threads nest correctly), the thread, a start
and an end. Spans stay in memory until the rep writes them out.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

# Span tuple layout.
ID, PARENT, NAME, TID, START, END, SIZE = range(7)


class Recorder:
    """Collects spans from every thread that calls a wrapped function."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.thread_names: dict[int, str] = {}
        self._next_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, name: str, fn, size=None):
        """``fn`` timed as span ``name``; ``size(result)`` is stored with it."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            with self._lock:
                self._next_id += 1
                span_id = self._next_id
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            nbytes = 0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if size is not None:
                    nbytes = size(result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                thread = threading.current_thread()
                with self._lock:
                    self.thread_names.setdefault(thread.ident, thread.name)
                    self.spans.append(
                        (span_id, parent, name, thread.ident, start, end, nbytes)
                    )

        return timed


def install(recorder: Recorder) -> None:
    """Wrap every layer boundary the benchmark reports (see README.md)."""
    import repro.runtime.module as module
    from repro.runtime.measure import LocalEvaluator
    from repro.service.session import TuningSession
    from repro.swing import SwingEvaluator
    from repro.telemetry.sinks import JsonlSink
    from repro.telemetry.store import StoreSink
    from repro.ytopt.optimizer import Optimizer
    from repro.ytopt.surrogate import RandomForestSurrogate

    codegen = sys.modules["repro.tir.codegen_c"]
    targets = (
        (module, "lower", "tir.lower", None),
        (module, "simplify_func", "tir.simplify", None),
        (module, "build_callable_native", "tir.native_build", None),
        (codegen, "codegen_c", "tir.emit_c", len),
        (codegen, "compile_source", "tir.cc", None),
        (module.Module, "__call__", "runtime.kernel", None),
        (LocalEvaluator, "evaluate", "runtime.evaluate", None),
        (LocalEvaluator, "precompile", "runtime.precompile", None),
        (Optimizer, "ask", "ytopt.ask", None),
        (Optimizer, "ask_batch", "ytopt.ask", None),
        (Optimizer, "tell", "ytopt.tell", None),
        (Optimizer, "speculate", "ytopt.speculate", None),
        (Optimizer, "confirm_speculation", "ytopt.speculate", None),
        (RandomForestSurrogate, "fit", "ytopt.fit", None),
        (RandomForestSurrogate, "predict", "ytopt.predict", None),
        (SwingEvaluator, "evaluate", "swing.evaluate", None),
        (TuningSession, "__init__", "service.session_init", None),
        (StoreSink, "handle", "telemetry.store_sink", None),
        (JsonlSink, "handle", "telemetry.jsonl_sink", None),
    )
    for owner, attr, name, size in targets:
        setattr(owner, attr, recorder.wrap(name, getattr(owner, attr), size))


def rollup(spans: list[tuple]) -> tuple[dict, dict]:
    """Per-layer and per-thread totals.

    A layer's ``total_s`` and ``calls`` count only spans not nested in a span
    of the same name (``ask_batch`` calls ``ask``); ``self_s`` is a span's
    duration minus its direct children's, summed over every span of the layer.
    Returns ``(layers, threads)``.
    """
    by_id = {s[ID]: s for s in spans}
    child_s: dict[int, float] = defaultdict(float)
    for s in spans:
        if s[PARENT] in by_id:
            child_s[s[PARENT]] += s[END] - s[START]

    def nested_in_same(s) -> bool:
        parent = by_id.get(s[PARENT])
        while parent is not None:
            if parent[NAME] == s[NAME]:
                return True
            parent = by_id.get(parent[PARENT])
        return False

    layers: dict[str, dict] = {}
    threads: dict[int, dict] = {}
    for s in spans:
        dur = s[END] - s[START]
        self_s = dur - child_s[s[ID]]
        layer = layers.setdefault(
            s[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "bytes": 0, "durations": []}
        )
        layer["self_s"] += self_s
        layer["bytes"] += s[SIZE]
        if not nested_in_same(s):
            layer["calls"] += 1
            layer["total_s"] += dur
            layer["durations"].append(dur)
        thread = threads.setdefault(
            s[TID], {"self_s": 0.0, "first": s[START], "last": s[END]}
        )
        thread["self_s"] += self_s
        thread["first"] = min(thread["first"], s[START])
        thread["last"] = max(thread["last"], s[END])
    for thread in threads.values():
        thread["wall_s"] = thread.pop("last") - thread.pop("first")
    return layers, threads


def chrome_events(spans: list[tuple], thread_names: dict[int, str], origin: float) -> list[dict]:
    """Spans as Chrome trace events (``"ph": "X"``, one ``tid`` per thread),
    microseconds since ``origin``; the caller sets ``pid``."""
    tids = {ident: i + 1 for i, ident in enumerate(sorted(thread_names))}
    events = [
        {"name": "thread_name", "ph": "M", "tid": tids[ident], "args": {"name": name}}
        for ident, name in thread_names.items()
    ]
    for s in sorted(spans, key=lambda s: s[START]):
        events.append(
            {
                "name": s[NAME],
                "cat": s[NAME].split(".")[0],
                "ph": "X",
                "ts": round((s[START] - origin) * 1e6, 3),
                "dur": round((s[END] - s[START]) * 1e6, 3),
                "tid": tids[s[TID]],
                "args": {"id": s[ID], "parent": s[PARENT]},
            }
        )
    return events
