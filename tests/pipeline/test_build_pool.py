"""BuildPool: dedup, compile-ahead speculation scoring, stats, shutdown."""

import threading
import time

import pytest

from repro.common.errors import TuningError
from repro.pipeline import BuildPool
from repro.pipeline.build_pool import config_key


class RecordingPrecompiler:
    """Thread-safe fake of ``LocalEvaluator.precompile``."""

    def __init__(self, ok=True, delay=0.0):
        self.ok = ok
        self.delay = delay
        self.calls = []
        self._lock = threading.Lock()

    def __call__(self, params):
        if self.delay:
            time.sleep(self.delay)
        with self._lock:
            self.calls.append(tuple(sorted(params.items())))
        return self.ok

    def count(self, config):
        key = tuple(sorted(config.items()))
        return sum(1 for c in self.calls if c == key)


class TestBuildPool:
    def test_invalid_jobs_rejected(self):
        with pytest.raises(TuningError, match="jobs must be >= 1"):
            BuildPool(RecordingPrecompiler(), jobs=0)

    def test_submit_dedups_by_config_key(self):
        pre = RecordingPrecompiler()
        with BuildPool(pre, jobs=2) as pool:
            assert pool.submit({"P0": 2, "P1": 4})
            assert not pool.submit({"P0": 2, "P1": 4})  # in flight: one build
            pool.wait([{"P0": 2, "P1": 4}])
        assert pre.count({"P0": 2, "P1": 4}) == 1
        assert pool.submitted == 1

    def test_spec_hit_reuses_the_compiled_build(self):
        """A speculative build that the real ask picks up is never redone."""
        pre = RecordingPrecompiler()
        with BuildPool(pre, jobs=2) as pool:
            config = {"P0": 8}
            assert pool.submit(config, speculative=True)
            # The real wave arrives with the same configuration: the submit
            # dedups onto the in-flight speculative build...
            assert not pool.submit(config)
            pool.score_speculation([config], [config])
            pool.wait([config])
        # ...so exactly one compile happened, scored as a hit.
        assert pre.count(config) == 1
        assert (pool.spec_hits, pool.spec_misses) == (1, 0)
        assert pool.hit_rate == 1.0

    def test_spec_miss_discarded_without_tell(self):
        """A mispredicted speculative build is dropped from the pool."""
        pre = RecordingPrecompiler()
        with BuildPool(pre, jobs=2) as pool:
            missed, actual = {"P0": 2}, {"P0": 16}
            pool.submit(missed, speculative=True)
            pool.submit(actual)
            pool.score_speculation([missed], [actual])
            assert (pool.spec_hits, pool.spec_misses) == (0, 1)
            # The missed future is forgotten: waiting on it is a no-op (its
            # artifact may still land in the content cache, harmlessly).
            assert config_key(missed) not in pool._futures
            pool.wait([actual])
        assert pool.hit_rate == 0.0

    def test_missed_speculation_is_not_rebuilt(self):
        """A later ask that picks a missed speculation waits on its build
        instead of building it again: each config is built at most once."""
        pre = RecordingPrecompiler(delay=0.05)
        with BuildPool(pre, jobs=2) as pool:
            missed, actual = {"P0": 2}, {"P0": 16}
            pool.submit(missed, speculative=True)
            pool.submit(actual)
            pool.score_speculation([missed], [actual])
            pool.wait([actual])
            assert not pool.submit(missed)  # picked a few asks later
            pool.wait([missed])
            assert pre.count(missed) == 1
            assert config_key(missed) not in pool._futures  # waited, claimed
        assert pool.submitted == 2

    def test_failed_builds_counted_not_raised(self):
        pre = RecordingPrecompiler(ok=False)
        with BuildPool(pre, jobs=1) as pool:
            pool.submit({"P0": 3})
            pool.wait([{"P0": 3}])  # must not raise: evaluate() reproduces it
        assert pool.failures == 1
        assert pool.completed == 1

    def test_parallel_submits_and_occupancy(self):
        pre = RecordingPrecompiler(delay=0.05)
        configs = [{"P0": v} for v in (1, 2, 3, 4)]
        with BuildPool(pre, jobs=4) as pool:
            t0 = time.perf_counter()
            for c in configs:
                pool.submit(c)
            pool.wait(configs)
            wall = time.perf_counter() - t0
        assert pool.completed == 4
        assert pool.occupancy_peak >= 2
        # Four 50ms sleeps across 4 threads: well under the 200ms serial sum
        # (sleep releases the GIL like the real subprocess compile does).
        assert wall < 0.18
        assert pool.busy_seconds >= 0.18  # the worker-seconds integral
        assert pool.jobs == 4

    def test_discard_forgets_pending_builds(self):
        pre = RecordingPrecompiler(delay=0.02)
        with BuildPool(pre, jobs=1) as pool:
            pool.submit({"P0": 5})
            pool.discard([{"P0": 5}])
            assert pool._futures == {}

    def test_wait_accumulates_stall_seconds(self):
        pre = RecordingPrecompiler(delay=0.03)
        with BuildPool(pre, jobs=1) as pool:
            pool.submit({"P0": 6})
            elapsed = pool.wait([{"P0": 6}])
        assert elapsed > 0.0
        assert pool.wait_seconds >= elapsed
