"""The host C toolchain: probe, compile recipe, artifact keys and directory.

Two layers compile C with the same compiler and recipe: the native kernel
tier (:mod:`repro.tir.codegen_c`) and the compiled tree grower
(:mod:`repro.ml.native`). This module is what they share, and it imports
nothing from the compiler, so the grower can find (or fail to find) a
toolchain without loading :mod:`repro.te` or :mod:`repro.tir`.

* :func:`find_toolchain` — ``REPRO_CC`` if set, else cc/gcc/clang on PATH,
  probed once per path and process (failures too);
* :data:`CC_FLAGS` — the one lean compile recipe;
* :func:`source_key` / :func:`native_key` — content keys of a translation
  unit and of its compiled artifact;
* :func:`compile_source` — one compiler run into a content-addressed
  directory, published atomically; by default the per-run artifact
  directory (``REPRO_NATIVE_DIR``, else a temp dir removed at exit).
"""

from __future__ import annotations

import atexit
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import threading
import uuid

from repro.common.errors import ExecutionError

# ---------------------------------------------------------------------------
# Toolchain probe
# ---------------------------------------------------------------------------


class NativeToolchainError(ExecutionError):
    """No usable C compiler (missing from PATH, or probe/compile failed)."""


class Toolchain:
    """A probed C compiler: path + the version line that keys the cache."""

    __slots__ = ("path", "version")

    def __init__(self, path: str, version: str) -> None:
        self.path = path
        self.version = version

    @property
    def fingerprint(self) -> str:
        return f"{self.path}::{self.version}"

    def __repr__(self) -> str:
        return f"Toolchain({self.path!r}, {self.version!r})"


#: Probe order when ``REPRO_CC`` is unset (cc first: the system default).
COMPILER_CANDIDATES = ("cc", "gcc", "clang")

_toolchain_lock = threading.Lock()
_toolchain_cache: dict[str, Toolchain] = {}
#: Negative probe cache: path -> error string. A missing/broken compiler is
#: probed once per process, not once per build attempt — each failed probe
#: costs a subprocess spawn (or a 30s timeout for a hung wrapper script).
_toolchain_failures: dict[str, str] = {}


def _probe_version(path: str) -> str:
    try:
        proc = subprocess.run(
            [path, "--version"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise NativeToolchainError(f"cannot run {path!r}: {exc}") from exc
    if proc.returncode != 0:
        raise NativeToolchainError(
            f"{path!r} --version exited {proc.returncode}"
        )
    first = (proc.stdout or proc.stderr).strip().splitlines()
    if not first:
        raise NativeToolchainError(f"{path!r} --version produced no output")
    return first[0]


def find_toolchain() -> Toolchain:
    """The C compiler to use: ``REPRO_CC`` if set, else cc/gcc/clang on PATH.

    The probe result (including the version line) is cached per compiler
    path; a missing or broken compiler raises :class:`NativeToolchainError`.
    """
    override = os.environ.get("REPRO_CC", "").strip()
    candidates = (override,) if override else COMPILER_CANDIDATES
    errors = []
    for cand in candidates:
        path = cand if os.path.sep in cand else (shutil.which(cand) or cand)
        with _toolchain_lock:
            cached = _toolchain_cache.get(path)
            failure = _toolchain_failures.get(path)
        if cached is not None:
            return cached
        if failure is not None:
            errors.append(failure)
            continue
        try:
            version = _probe_version(path)
        except NativeToolchainError as exc:
            with _toolchain_lock:
                _toolchain_failures[path] = str(exc)
            errors.append(str(exc))
            continue
        tc = Toolchain(path, version)
        with _toolchain_lock:
            _toolchain_cache[path] = tc
        return tc
    raise NativeToolchainError(
        "no usable C compiler: " + "; ".join(errors)
    )


# ---------------------------------------------------------------------------
# Compile, cached by (content hash, toolchain version, flags, architecture)
# ---------------------------------------------------------------------------


class NativeCompileError(ExecutionError):
    """One translation unit failed to compile or load."""


#: The one compile recipe. ``-nostdlib`` links no crt files and no libc or
#: libm: the ``.so``'s calloc/free/libm references stay undefined and bind
#: at ``dlopen`` from the host process. An undeclared call is an error.
CC_FLAGS = (
    "-O2",
    "-fPIC",
    "-shared",
    "-nostdlib",
    "-Werror=implicit-function-declaration",
)


def source_key(source: str) -> str:
    """Content hash of one emitted translation unit (the golden-test key)."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def native_key(
    source: str, toolchain: Toolchain, flags: tuple[str, ...] = CC_FLAGS
) -> str:
    """BuildCache key for one native artifact.

    Combines the source content hash with the toolchain's version
    fingerprint, the compile flags and the host architecture: upgrading (or
    switching) the compiler or changing the recipe changes every key, so
    stale shared objects are never reused across toolchains or recipes, and
    hosts of two architectures sharing a directory never load each other's
    (``cc --version`` names no target).
    """
    blob = (
        f"{source_key(source)}::{toolchain.fingerprint}::{' '.join(flags)}"
        f"::{platform.machine()}"
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


_workdir_lock = threading.Lock()
_workdir: str | None = None


def _scratch_dir() -> str:
    """Content-addressed artifact directory (``REPRO_NATIVE_DIR`` overrides)."""
    global _workdir
    with _workdir_lock:
        if _workdir is None:
            override = os.environ.get("REPRO_NATIVE_DIR", "").strip()
            if override:
                os.makedirs(override, exist_ok=True)
                _workdir = override
            else:
                _workdir = tempfile.mkdtemp(prefix="repro-native-")
                atexit.register(shutil.rmtree, _workdir, ignore_errors=True)
        return _workdir


def reset() -> None:
    """Testing hook: forget the probe caches and the artifact directory."""
    global _workdir
    with _toolchain_lock:
        _toolchain_cache.clear()
        _toolchain_failures.clear()
    with _workdir_lock:
        _workdir = None


def compile_source(
    source: str,
    toolchain: Toolchain,
    flags: tuple[str, ...] = CC_FLAGS,
    workdir: str | None = None,
) -> str:
    """Compile one translation unit to a shared object; returns its path.

    Artifacts are content-addressed by :func:`native_key` in ``workdir``
    (the per-run :func:`_scratch_dir` by default), so recompiling identical
    source under the same toolchain and flags reuses the on-disk ``.so``
    even when the in-memory entry cache has evicted the loaded function.
    Raises OSError when ``workdir`` cannot be written.
    """
    key = native_key(source, toolchain, flags)
    if workdir is None:
        workdir = _scratch_dir()
    so_path = os.path.join(workdir, f"{key}.so")
    if os.path.exists(so_path):
        return so_path
    # Compile into writer-private temp names and publish with os.replace
    # (atomic within the directory): concurrent compiles of the same key —
    # the parallel build pool, or two processes sharing a directory —
    # can never observe a torn ``.so``; last writer wins with identical
    # content-addressed bytes.
    tag = f"{os.getpid()}.{uuid.uuid4().hex}.tmp"
    c_path = os.path.join(workdir, f"{key}.c")
    c_tmp = os.path.join(workdir, f"{key}.{tag}.c")
    so_tmp = os.path.join(workdir, f"{key}.{tag}.so")
    with open(c_tmp, "w") as fh:
        fh.write(source)
    cmd = [toolchain.path, *flags, "-o", so_tmp, c_tmp]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    except (OSError, subprocess.TimeoutExpired) as exc:
        _unlink_quietly(c_tmp, so_tmp)
        raise NativeCompileError(f"compile failed: {exc}") from exc
    if proc.returncode != 0 or not os.path.exists(so_tmp):
        _unlink_quietly(c_tmp, so_tmp)
        detail = (proc.stderr or proc.stdout).strip()
        raise NativeCompileError(
            f"{toolchain.path} exited {proc.returncode}: {detail[:500]}"
        )
    os.replace(c_tmp, c_path)
    os.replace(so_tmp, so_path)
    return so_path


def _unlink_quietly(*paths: str) -> None:
    for path in paths:
        try:
            os.unlink(path)
        except OSError:
            pass
