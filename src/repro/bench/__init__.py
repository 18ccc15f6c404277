"""Pluggable benchmark × tuner registry (the CATBench-shaped plugin layer).

Public surface:

* :class:`~repro.bench.protocols.TunerSpec` (a tuner family and its
  factory) and :class:`~repro.bench.protocols.TunerContext` (what the
  factory binds);
* :func:`register_benchmark` / :func:`register_tuner` — plugin registration;
* :func:`get_benchmark` / :func:`get_tuner` / :func:`benchmark_names` /
  :func:`tuner_names` / :func:`benchmark_pairs` — discovery (used by
  ``repro list``, ``repro tune``, experiments, and service admission);
* :mod:`repro.bench.conformance` — the cross-product battery (imported
  explicitly; it pulls in the service stack).

This package holds the tuner table (:mod:`repro.bench.registry`; seven
families: ytopt RF, four AutoTVM tuners, GP+LCB, TPE). The benchmark half
of the API is re-exported from the one benchmark table,
:mod:`repro.kernels.registry`, which registers the paper's three kernels
and four PolyBench plugins (gemm, syrk, trmm, jacobi-2d).
"""

from repro.bench.protocols import TunerContext, TunerSpec
from repro.bench.registry import get_tuner, register_tuner, tuner_names, tuner_specs
from repro.kernels.registry import (
    BenchmarkEntry,
    benchmark_entries,
    benchmark_entry,
    benchmark_names,
    benchmark_pairs,
    get_benchmark,
    register_benchmark,
)

__all__ = [
    "TunerContext",
    "TunerSpec",
    "BenchmarkEntry",
    "benchmark_entries",
    "benchmark_entry",
    "benchmark_names",
    "benchmark_pairs",
    "get_benchmark",
    "get_tuner",
    "register_benchmark",
    "register_tuner",
    "tuner_names",
    "tuner_specs",
]
