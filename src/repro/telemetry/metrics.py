"""Counters and histograms aggregated from the telemetry event stream.

The registry answers the operational questions a long autotuning campaign
raises — evaluations per second, failure rate, cache hit ratio, pruned and
promoted trials — without storing the full event stream. A
:class:`MetricsSink` subscribes to the event bus and folds each event into the
registry, so instrumented code emits events once and every consumer (trace,
store, metrics, console) derives its own view.
"""

from __future__ import annotations

import math
import threading
import time

from repro.telemetry.bus import Sink
from repro.telemetry.events import (
    CacheHit,
    CacheMiss,
    Event,
    SpanClosed,
    SurrogateFitted,
    TrialMeasured,
    TrialPromoted,
    TrialPruned,
)


class Counter:
    """A monotonically increasing count."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Streaming distribution summary with a bounded sample reservoir.

    Exact count/sum/min/max are always maintained; percentiles come from the
    first ``max_samples`` observations plus systematic thinning afterwards
    (every k-th observation replaces a rotating slot), which is adequate for
    the 10²–10⁴ observation scale of a tuning run.
    """

    def __init__(self, name: str, max_samples: int = 2048) -> None:
        if max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples}")
        self.name = name
        self.max_samples = max_samples
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._samples: list[float] = []
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        v = float(value)
        with self._lock:
            self.count += 1
            self.total += v
            self.min = min(self.min, v)
            self.max = max(self.max, v)
            if len(self._samples) < self.max_samples:
                self._samples.append(v)
            else:
                self._samples[self.count % self.max_samples] = v

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0–100) of the retained samples."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        with self._lock:
            if not self._samples:
                return 0.0
            s = sorted(self._samples)
        idx = min(len(s) - 1, int(round(q / 100.0 * (len(s) - 1))))
        return s[idx]

    def summary(self) -> dict[str, float]:
        return {
            "count": float(self.count),
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
        }


class MetricsRegistry:
    """Named counters and histograms plus derived rates."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()
        self._created = time.perf_counter()

    def counter(self, name: str) -> Counter:
        with self._lock:
            if name not in self._counters:
                self._counters[name] = Counter(name)
            return self._counters[name]

    def histogram(self, name: str, max_samples: int = 2048) -> Histogram:
        with self._lock:
            if name not in self._histograms:
                self._histograms[name] = Histogram(name, max_samples=max_samples)
            return self._histograms[name]

    def wall_elapsed(self) -> float:
        return time.perf_counter() - self._created

    def snapshot(self) -> dict[str, float]:
        """All counters, histogram summaries, and derived ratios/rates."""
        out: dict[str, float] = {}
        with self._lock:
            counters = dict(self._counters)
            histograms = dict(self._histograms)
        for name, c in sorted(counters.items()):
            out[name] = c.value
        for name, h in sorted(histograms.items()):
            for k, v in h.summary().items():
                out[f"{name}.{k}"] = v
        evals = counters["evaluations"].value if "evaluations" in counters else 0.0
        fails = counters["failures"].value if "failures" in counters else 0.0
        hits = counters["cache_hits"].value if "cache_hits" in counters else 0.0
        misses = counters["cache_misses"].value if "cache_misses" in counters else 0.0
        elapsed = self.wall_elapsed()
        out["evaluations_per_s"] = evals / elapsed if elapsed > 0 else 0.0
        out["failure_rate"] = fails / evals if evals else 0.0
        out["cache_hit_ratio"] = hits / (hits + misses) if (hits + misses) else 0.0
        return out


class MetricsSink(Sink):
    """Fold the event stream into a :class:`MetricsRegistry`."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry

    def handle(self, event: Event) -> None:
        reg = self.registry
        if isinstance(event, TrialMeasured):
            reg.counter("evaluations").inc()
            if event.error is not None:
                reg.counter("failures").inc()
            else:
                reg.histogram("trial_runtime").observe(event.runtime)
            reg.histogram("trial_compile_time").observe(event.compile_time)
            if event.low_fidelity:
                reg.counter("trials_low_fidelity").inc()
        elif isinstance(event, TrialPruned):
            reg.counter(
                "trials_pruned_surrogate"
                if event.source == "surrogate"
                else "trials_pruned_fidelity"
            ).inc()
            reg.histogram("pruned_estimate").observe(event.estimate)
        elif isinstance(event, TrialPromoted):
            reg.counter("trials_promoted").inc()
            reg.histogram("promoted_repeats").observe(float(event.total_repeats))
        elif isinstance(event, CacheHit):
            reg.counter("cache_hits").inc()
        elif isinstance(event, CacheMiss):
            reg.counter("cache_misses").inc()
        elif isinstance(event, SurrogateFitted):
            reg.counter("surrogate_fits").inc()
            reg.histogram("surrogate_fit_time").observe(event.wall_time)
        elif isinstance(event, SpanClosed):
            reg.histogram(f"span.{event.name}.wall").observe(event.wall_time)
            if event.virtual_time is not None:
                reg.histogram(f"span.{event.name}.virtual").observe(event.virtual_time)


def format_metrics_summary(registry: MetricsRegistry) -> str:
    """One console line with the numbers an operator checks first."""
    snap = registry.snapshot()
    parts = [
        f"{int(snap.get('evaluations', 0))} evals",
        f"{snap.get('evaluations_per_s', 0.0):.1f} evals/s",
        f"failure rate {snap.get('failure_rate', 0.0):.1%}",
    ]
    if snap.get("cache_hits", 0.0) or snap.get("cache_misses", 0.0):
        parts.append(f"cache hit ratio {snap.get('cache_hit_ratio', 0.0):.1%}")
    for key, label in (
        ("trials_pruned_surrogate", "surrogate-pruned"),
        ("trials_pruned_fidelity", "probe-terminated"),
        ("trials_promoted", "promoted"),
        ("surrogate_fits", "surrogate fits"),
    ):
        if snap.get(key, 0.0):
            parts.append(f"{int(snap[key])} {label}")
    return "telemetry: " + ", ".join(parts)
