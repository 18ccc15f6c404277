"""Thread-safe LRU cache of built artifacts with hit/miss counters.

The native C tier keeps one process-wide instance
(:func:`repro.tir.codegen_c.native_cache`) that maps a native key — emitted
source, toolchain fingerprint, compile flags and architecture, see
:func:`repro.common.toolchain.native_key` — to the loaded entry point, so
kernel source built twice in one process is compiled and loaded once. Each
lookup emits a :class:`~repro.telemetry.events.CacheHit` or
:class:`~repro.telemetry.events.CacheMiss` event.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any

from repro.common.errors import ReproError
from repro.telemetry.context import get_telemetry
from repro.telemetry.events import CacheHit, CacheMiss


class BuildCache:
    """Thread-safe LRU cache of compiled artifacts with hit/miss counters."""

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ReproError(f"BuildCache max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: OrderedDict[str, Any] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: str) -> Any | None:
        """The cached artifact, or None; counts a hit or a miss."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                artifact = self._entries[key]
            else:
                self.misses += 1
                artifact = None
        tel = get_telemetry()
        if tel.enabled:
            tel.emit(CacheHit(key=key) if artifact is not None else CacheMiss(key=key))
        return artifact

    def put(self, key: str, artifact: Any) -> None:
        with self._lock:
            self._entries[key] = artifact
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
