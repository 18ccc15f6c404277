"""Metrics registry: counters, histograms, derived rates, event folding."""

from __future__ import annotations

import pytest

from repro.telemetry import (
    CacheHit,
    CacheMiss,
    MetricsRegistry,
    MetricsSink,
    SpanClosed,
    SurrogateFitted,
    Telemetry,
    TrialMeasured,
)
from repro.telemetry.metrics import Histogram, format_metrics_summary


def _trial(rt: float = 1.0, error: str | None = None) -> TrialMeasured:
    return TrialMeasured(
        config={"P0": 1}, runtime=rt, compile_time=0.1, elapsed=rt, error=error
    )


class TestPrimitives:
    def test_counter_increments(self):
        reg = MetricsRegistry()
        c = reg.counter("evaluations")
        c.inc()
        c.inc(2.0)
        assert reg.counter("evaluations").value == 3.0  # same object returned

    def test_histogram_exact_stats(self):
        h = Histogram("rt")
        for v in [4.0, 1.0, 3.0, 2.0]:
            h.observe(v)
        assert h.count == 4
        assert h.total == 10.0
        assert h.mean == 2.5
        assert (h.min, h.max) == (1.0, 4.0)

    def test_histogram_percentiles(self):
        h = Histogram("rt")
        for v in range(1, 101):  # 1..100
            h.observe(float(v))
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 100.0
        assert abs(h.percentile(50) - 50.0) <= 1.0

    def test_histogram_reservoir_bounded(self):
        h = Histogram("rt", max_samples=16)
        for v in range(1000):
            h.observe(float(v))
        assert h.count == 1000
        assert len(h._samples) == 16
        assert h.max == 999.0  # exact extrema survive thinning

    def test_histogram_rejects_bad_args(self):
        with pytest.raises(ValueError):
            Histogram("x", max_samples=0)
        with pytest.raises(ValueError):
            Histogram("x").percentile(101)

    def test_empty_histogram_summary(self):
        s = Histogram("x").summary()
        assert s["count"] == 0.0 and s["min"] == 0.0 and s["p50"] == 0.0


class TestSinkFolding:
    def _registry_after(self, events) -> MetricsRegistry:
        reg = MetricsRegistry()
        sink = MetricsSink(reg)
        for e in events:
            sink.handle(e)
        return reg

    def test_trials_and_failures(self):
        reg = self._registry_after(
            [_trial(1.0), _trial(2.0), _trial(0.0, error="crash")]
        )
        snap = reg.snapshot()
        assert snap["evaluations"] == 3.0
        assert snap["failures"] == 1.0
        assert snap["failure_rate"] == pytest.approx(1 / 3)
        # failed trials do not pollute the runtime distribution
        assert snap["trial_runtime.count"] == 2.0
        assert snap["trial_runtime.mean"] == pytest.approx(1.5)

    def test_cache_hit_ratio(self):
        reg = self._registry_after(
            [CacheHit(key="a"), CacheHit(key="a"), CacheHit(key="b"), CacheMiss(key="c")]
        )
        assert reg.snapshot()["cache_hit_ratio"] == pytest.approx(0.75)

    def test_surrogate_and_span_histograms(self):
        reg = self._registry_after(
            [
                SurrogateFitted(n_samples=10, wall_time=0.25),
                SpanClosed(name="fit", wall_time=0.3, virtual_time=None),
                SpanClosed(name="measure", wall_time=0.1, virtual_time=5.0),
            ]
        )
        snap = reg.snapshot()
        assert snap["surrogate_fits"] == 1.0
        assert snap["surrogate_fit_time.mean"] == pytest.approx(0.25)
        assert snap["span.fit.wall.count"] == 1.0
        assert snap["span.measure.virtual.mean"] == pytest.approx(5.0)
        assert "span.fit.virtual.count" not in snap

    def test_evaluations_per_s_positive(self):
        reg = self._registry_after([_trial()])
        assert reg.snapshot()["evaluations_per_s"] > 0.0


class TestTelemetryIntegration:
    def test_telemetry_auto_subscribes_metrics(self):
        tel = Telemetry()
        tel.emit(_trial())
        tel.emit(CacheHit(key="k"))
        snap = tel.metrics.snapshot()
        assert snap["evaluations"] == 1.0 and snap["cache_hits"] == 1.0

    def test_format_metrics_summary(self):
        tel = Telemetry()
        tel.emit(_trial())
        tel.emit(_trial(error="boom"))
        tel.emit(CacheHit(key="k"))
        tel.emit(CacheMiss(key="m"))
        line = format_metrics_summary(tel.metrics)
        assert line.startswith("telemetry: 2 evals")
        assert "failure rate 50.0%" in line
        assert "cache hit ratio 50.0%" in line

    def test_summary_omits_zero_sections(self):
        tel = Telemetry()
        tel.emit(_trial())
        line = format_metrics_summary(tel.metrics)
        assert "cache" not in line
        for label in ("surrogate-pruned", "probe-terminated", "promoted",
                      "surrogate fits"):
            assert label not in line
