"""The paper's primary contribution: TVM autotuning via Bayesian optimization.

:class:`BayesianAutotuner` wires the pieces of Figure 3 together — parameter
space (ConfigSpace), code mold / schedule builder, evaluation backend (real
execution or the simulated Swing cluster), the ytopt Bayesian optimizer, and
the performance database — behind one call:

>>> from repro.core import AutotuneConfig, BayesianAutotuner
>>> from repro.kernels import get_benchmark
>>> tuner = BayesianAutotuner.for_benchmark(
...     get_benchmark("lu", "large"), AutotuneConfig(seed=0))
>>> result = tuner.run(max_evals=20)   # doctest: +SKIP
"""

from repro.core.framework import BayesianAutotuner, AutotuneConfig

__all__ = ["BayesianAutotuner", "AutotuneConfig"]
