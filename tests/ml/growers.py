"""Test helper: run a block on one tree grower, compiled or NumPy."""

from __future__ import annotations

import contextlib
from unittest import mock

import pytest

from repro.ml import native
from repro.tir.codegen_c import NativeToolchainError, find_toolchain


def have_toolchain() -> bool:
    try:
        find_toolchain()
    except NativeToolchainError:
        return False
    return True


@contextlib.contextmanager
def use_grower(grower: str):
    """``"native"``: the compiled library, which must load wherever a C
    toolchain exists (skips where none does). ``"numpy"``: the NumPy grower
    and tree walk, as on a host without a toolchain."""
    if grower == "numpy":
        with mock.patch.object(native, "library", lambda: None):
            yield
        return
    if not have_toolchain():
        pytest.skip("no C toolchain: the compiled grower cannot be built")
    assert native.library() is not None, "the grower library failed to build"
    yield
