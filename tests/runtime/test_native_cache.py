"""Native artifact caching: keyed by (source content hash, toolchain version,
compile flags).

Two layers are under test: the in-memory
:class:`~repro.runtime.build_cache.BuildCache` of loaded entry points (with
hit/miss accounting and CacheHit/CacheMiss telemetry), and the
content-addressed ``.so`` scratch directory that survives in-memory eviction
— recompiling identical source under the same toolchain reuses the artifact
on disk instead of invoking the compiler again.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

import repro.te as te
from repro.telemetry import RecordingSink, Telemetry, telemetry_session
from repro.tir import lower, simplify_func
from repro.tir.codegen_c import (
    CC_FLAGS,
    NativeToolchainError,
    Toolchain,
    build_callable_native,
    codegen_c,
    compile_source,
    find_toolchain,
    native_cache,
    native_key,
    reset_native_runtime,
    source_key,
)
from tests.conftest import make_matmul

try:
    find_toolchain()
    HAS_TOOLCHAIN = True
except NativeToolchainError:  # pragma: no cover - CI images ship gcc
    HAS_TOOLCHAIN = False

needs_cc = pytest.mark.skipif(not HAS_TOOLCHAIN, reason="no C toolchain")


@pytest.fixture
def clean_native_state():
    reset_native_runtime()
    try:
        yield
    finally:
        reset_native_runtime()


def _matmul_func(n: int = 12):
    A, B, C = make_matmul(n=n)
    s = te.create_schedule(C.op)
    return simplify_func(lower(s, [A, B, C]))


class TestNativeKey:
    def test_same_source_same_toolchain_same_key(self):
        tc = Toolchain("/usr/bin/cc", "cc (Debian) 12.2.0")
        assert native_key("int x;", tc) == native_key("int x;", tc)

    def test_key_varies_with_source(self):
        tc = Toolchain("/usr/bin/cc", "cc (Debian) 12.2.0")
        assert native_key("int x;", tc) != native_key("int y;", tc)

    def test_key_varies_with_toolchain_version(self):
        old = Toolchain("/usr/bin/cc", "cc (Debian) 12.2.0")
        new = Toolchain("/usr/bin/cc", "cc (Debian) 13.1.0")
        assert native_key("int x;", old) != native_key("int x;", new)

    def test_key_varies_with_toolchain_path(self):
        a = Toolchain("/usr/bin/gcc", "gcc 12.2.0")
        b = Toolchain("/usr/bin/clang", "gcc 12.2.0")
        assert native_key("int x;", a) != native_key("int x;", b)

    def test_key_varies_with_flags(self):
        tc = Toolchain("/usr/bin/cc", "cc 12")
        other = tuple("-O1" if f == "-O2" else f for f in CC_FLAGS)
        assert native_key("int x;", tc) == native_key("int x;", tc, CC_FLAGS)
        assert native_key("int x;", tc) != native_key("int x;", tc, other)

    def test_key_is_not_the_bare_source_hash(self):
        # The toolchain fingerprint must participate, not just the source.
        tc = Toolchain("/usr/bin/cc", "cc 12")
        assert native_key("int x;", tc) != source_key("int x;")


@needs_cc
class TestNativeBuildCache:
    def test_second_build_is_a_cache_hit(self, clean_native_state):
        func = _matmul_func()
        cache = native_cache()
        assert (cache.hits, cache.misses) == (0, 0)
        first = build_callable_native(func)
        assert (cache.hits, cache.misses) == (0, 1)
        second = build_callable_native(func)
        assert (cache.hits, cache.misses) == (1, 1)
        assert second is first  # the loaded entry itself is reused

    def test_identical_lowerings_share_one_artifact(self, clean_native_state):
        # Two independently lowered copies of the same schedule emit
        # identical source, so the second build never reaches the compiler.
        e1 = build_callable_native(_matmul_func())
        e2 = build_callable_native(_matmul_func())
        assert e1.__native_key__ == e2.__native_key__
        assert native_cache().hits == 1

    def test_different_funcs_get_different_keys(self, clean_native_state):
        e1 = build_callable_native(_matmul_func(n=12))
        e2 = build_callable_native(_matmul_func(n=13))
        assert e1.__native_key__ != e2.__native_key__
        assert native_cache().misses == 2

    def test_cache_emits_hit_miss_telemetry(self, clean_native_state):
        func = _matmul_func()
        sink = RecordingSink()
        with telemetry_session(Telemetry([sink])):
            build_callable_native(func)
            build_callable_native(func)
        kinds = sink.kinds()
        assert kinds.count("cache_miss") == 1
        assert kinds.count("cache_hit") == 1

    def test_entry_key_matches_native_key(self, clean_native_state):
        func = _matmul_func()
        entry = build_callable_native(func)
        assert entry.__native_key__ == native_key(
            entry.__source__, find_toolchain()
        )
        # The emitted source the entry carries is exactly codegen_c's output.
        assert entry.__source__ == codegen_c(func)


@needs_cc
class TestOnDiskArtifactReuse:
    def test_so_survives_in_memory_reset(
        self, clean_native_state, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_NATIVE_DIR", str(tmp_path))
        entry = build_callable_native(_matmul_func())
        so = entry.__so_path__
        assert os.path.exists(so)
        stamp = os.stat(so).st_mtime_ns
        # Drop the in-memory entry cache; the scratch dir is re-resolved to
        # the same REPRO_NATIVE_DIR, so the .so is reused, not recompiled.
        reset_native_runtime()
        entry2 = build_callable_native(_matmul_func())
        assert entry2.__so_path__ == so
        assert os.stat(so).st_mtime_ns == stamp
        assert native_cache().misses == 1  # fresh cache: miss, then disk hit

    def test_other_recipe_artifact_is_not_reused(
        self, clean_native_state, monkeypatch, tmp_path
    ):
        # A .so built from the same source under another recipe, in a
        # shared REPRO_NATIVE_DIR, lives under another key.
        monkeypatch.setenv("REPRO_NATIVE_DIR", str(tmp_path))
        other = tuple("-O1" if f == "-O2" else f for f in CC_FLAGS)
        other_so = compile_source(codegen_c(_matmul_func()), find_toolchain(), other)
        entry = build_callable_native(_matmul_func())
        assert entry.__so_path__ != other_so
        assert os.path.exists(other_so) and os.path.exists(entry.__so_path__)

    def test_reloaded_artifact_still_computes(
        self, clean_native_state, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_NATIVE_DIR", str(tmp_path))
        build_callable_native(_matmul_func())
        reset_native_runtime()
        entry = build_callable_native(_matmul_func())
        rng = np.random.default_rng(3)
        a = rng.random((12, 8)).astype("float32")
        b = rng.random((8, 10)).astype("float32")
        c = np.zeros((12, 10), dtype="float32")
        entry(a, b, c)
        np.testing.assert_allclose(c, a @ b, rtol=1e-4, atol=1e-6)
