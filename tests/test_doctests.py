"""The examples in src docstrings run: one that goes stale fails here."""

import doctest
import importlib

import pytest


@pytest.mark.parametrize(
    "module", ["repro.core", "repro.te", "repro.common.divisors"]
)
def test_docstring_examples_pass(module):
    results = doctest.testmod(importlib.import_module(module))
    assert results.attempted > 0
    assert results.failed == 0
