"""Compile-ahead build pool of the AMBS loop.

The AMBS loop pays three costs end to end for every wave: the surrogate ask
(refit + acquisition), the kernel build (a subprocess C compile on the
native tier), and the measurement itself. When the evaluator's builds run
off the GIL (native tier, real clock), :class:`~repro.ytopt.search.AMBS`
overlaps them with two pieces:

* :class:`BuildPool` — a bounded thread pool of ahead-of-time kernel builds
  (``evaluator.precompile``), so a wave's compiles run ``compile_jobs`` wide
  instead of serially, and compile-ahead speculation pre-builds wave *k+1*
  while wave *k* is still measuring.
* :meth:`repro.ytopt.Optimizer.speculate` — a side-effect-free preview of
  the next ask used to pick those speculative builds; misses are discarded
  without a ``tell``.

Observations still commit on the loop's thread in ask order, so a run
commits the same trials whether or not it builds ahead, under every refit
policy.
"""

from repro.pipeline.build_pool import BuildPool, config_key, default_compile_jobs

__all__ = [
    "BuildPool",
    "config_key",
    "default_compile_jobs",
]
