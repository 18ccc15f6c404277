"""Native-toolchain process hygiene: atomic ``.so`` publication under
concurrent writers, and the per-path negative probe cache."""

import os
import stat
import threading

import pytest

# The probe lives in the toolchain module; codegen_c re-exports the rest.
from repro.common import toolchain
from repro.tir.codegen_c import (
    NativeToolchainError,
    compile_source,
    find_toolchain,
    native_key,
    reset_native_runtime,
)


@pytest.fixture
def clean_native_state():
    reset_native_runtime()
    try:
        yield
    finally:
        reset_native_runtime()


def _slow_cc(tmp_path):
    """A fake compiler that takes visibly long and writes a known payload,
    so two racing writers genuinely overlap inside the 'compile'."""
    script = tmp_path / "slowcc"
    script.write_text(
        "#!/bin/sh\n"
        'if [ "$1" = "--version" ]; then echo slowcc 1.0; exit 0; fi\n'
        'out=""; prev=""\n'
        'for a in "$@"; do\n'
        '  if [ "$prev" = "-o" ]; then out="$a"; fi\n'
        '  prev="$a"\n'
        "done\n"
        "sleep 0.2\n"
        "printf 'SHAREDOBJECT' > \"$out\"\n"
    )
    script.chmod(script.stat().st_mode | stat.S_IXUSR)
    return script


class TestAtomicSoPublication:
    def test_two_writers_same_key_publish_once_atomically(
        self, clean_native_state, monkeypatch, tmp_path
    ):
        """Two threads compiling the same source concurrently (the build
        pool's spec-hit race, or two processes sharing REPRO_NATIVE_DIR)
        both succeed, agree on the artifact path, and leave neither torn
        output nor temp litter behind."""
        monkeypatch.setenv("REPRO_CC", str(_slow_cc(tmp_path)))
        workdir = tmp_path / "artifacts"
        monkeypatch.setenv("REPRO_NATIVE_DIR", str(workdir))
        toolchain = find_toolchain()
        source = "int the_payload;\n"
        results, errors = [], []

        def writer():
            try:
                results.append(compile_source(source, toolchain))
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(set(results)) == 1
        so_path = results[0]
        key = native_key(source, toolchain)
        assert os.path.basename(so_path) == f"{key}.so"
        with open(so_path, "rb") as fh:
            assert fh.read() == b"SHAREDOBJECT"  # last writer, never torn
        leftovers = [n for n in os.listdir(workdir) if ".tmp" in n]
        assert leftovers == []

    def test_existing_artifact_short_circuits(
        self, clean_native_state, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_CC", str(_slow_cc(tmp_path)))
        monkeypatch.setenv("REPRO_NATIVE_DIR", str(tmp_path / "artifacts"))
        toolchain = find_toolchain()
        source = "int cached;\n"
        first = compile_source(source, toolchain)
        mtime = os.path.getmtime(first)
        assert compile_source(source, toolchain) == first
        assert os.path.getmtime(first) == mtime  # no recompile


class TestNegativeProbeCache:
    def test_failed_probe_cached_per_path(self, clean_native_state, monkeypatch):
        """A missing/broken compiler is probed once per process, not once
        per build attempt — each retry would cost a subprocess spawn (or a
        30s timeout for a hung wrapper)."""
        probes = []
        real_probe = toolchain._probe_version

        def counting_probe(path):
            probes.append(path)
            return real_probe(path)

        monkeypatch.setattr(toolchain, "_probe_version", counting_probe)
        monkeypatch.setenv("REPRO_CC", "/nonexistent/cc")
        for _ in range(3):
            with pytest.raises(NativeToolchainError, match="no usable C compiler"):
                find_toolchain()
        assert probes == ["/nonexistent/cc"]

    def test_successful_probe_cached_too(
        self, clean_native_state, monkeypatch, tmp_path
    ):
        probes = []
        real_probe = toolchain._probe_version

        def counting_probe(path):
            probes.append(path)
            return real_probe(path)

        monkeypatch.setattr(toolchain, "_probe_version", counting_probe)
        monkeypatch.setenv("REPRO_CC", str(_slow_cc(tmp_path)))
        assert find_toolchain() is find_toolchain()
        assert len(probes) == 1

    def test_reset_clears_the_negative_cache(
        self, clean_native_state, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_CC", "/nonexistent/cc")
        with pytest.raises(NativeToolchainError):
            find_toolchain()
        # The compiler "appears" (env now points at a working one) — after a
        # reset the fresh probe must see it.
        monkeypatch.setenv("REPRO_CC", str(_slow_cc(tmp_path)))
        reset_native_runtime()
        assert find_toolchain().version.startswith("slowcc")
