"""BuildCache unit + property tests: the LRU bound and the hit/miss
counters."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ReproError
from repro.runtime.build_cache import BuildCache


class TestBuildCache:
    def test_miss_then_hit(self):
        cache = BuildCache()
        key = "k"
        assert cache.get(key) is None
        cache.put(key, "artifact")
        assert cache.get(key) == "artifact"
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction(self):
        cache = BuildCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a
        cache.put("c", 3)  # evicts b (least recently used)
        assert len(cache) == 2
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.hits == 3 and cache.misses == 1

    def test_invalid_size_rejected(self):
        with pytest.raises(ReproError):
            BuildCache(max_entries=0)

    @settings(max_examples=40, deadline=None)
    @given(
        keys=st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=30),
        max_entries=st.integers(min_value=1, max_value=8),
    )
    def test_never_exceeds_capacity(self, keys, max_entries):
        cache = BuildCache(max_entries=max_entries)
        for i, k in enumerate(keys):
            cache.put(k, i)
            assert len(cache) <= max_entries
        # The most recently inserted key always survives.
        assert cache.get(keys[-1]) is not None
        assert (cache.hits, cache.misses) == (1, 0)
