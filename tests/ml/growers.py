"""Test helper: run a block on the compiled library or on the NumPy code
it stands in for (the tree grower and walk, the forest fit's draws, the
optimizer's candidate pool)."""

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
    toolchain exists (skips where none does). ``"numpy"``: the NumPy code,
    as on a host without a toolchain."""
    if grower == "numpy":
        with mock.patch.object(native, "library", lambda: None):
            yield
        return
    if not have_toolchain():
        pytest.skip("no C toolchain: the compiled grower cannot be built")
    assert native.library() is not None, "the grower library failed to build"
    yield


def generator_state(rng) -> dict:
    """The state of ``rng``'s bit generator with its arrays as lists, so two
    states compare with ``==`` whatever the algorithm."""

    def plain(value):
        if isinstance(value, dict):
            return {k: plain(v) for k, v in value.items()}
        return value.tolist() if hasattr(value, "tolist") else value

    return plain(rng.bit_generator.state)
