"""Pluggable benchmark × tuner registry (the CATBench-shaped plugin layer).

Public surface:

* :class:`~repro.bench.protocols.Benchmark` (the benchmark protocol) and
  :class:`~repro.bench.protocols.TunerSpec` (a tuner family and its factory);
* :func:`register_benchmark` / :func:`register_tuner` — plugin registration;
* :func:`get_benchmark` / :func:`get_tuner` / :func:`benchmark_names` /
  :func:`tuner_names` / :func:`benchmark_pairs` — discovery (used by
  ``repro list``, ``repro tune``, experiments, and service admission);
* :mod:`repro.bench.conformance` — the cross-product battery (imported
  explicitly; it pulls in the service stack).

Built-ins: the paper's three kernels auto-adapted from
:mod:`repro.kernels.registry`, four PolyBench plugins (gemm, syrk, trmm,
jacobi-2d), and seven tuner families (ytopt RF, four AutoTVM tuners, GP+LCB,
TPE).
"""

from repro.bench.protocols import (
    Benchmark,
    TuneOutcome,
    TunerContext,
    TunerSpec,
)
from repro.bench.registry import (
    BenchmarkEntry,
    benchmark_entries,
    benchmark_entry,
    benchmark_names,
    benchmark_pairs,
    get_benchmark,
    get_tuner,
    register_benchmark,
    register_tuner,
    tuner_names,
    tuner_specs,
)

__all__ = [
    "Benchmark",
    "TuneOutcome",
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
