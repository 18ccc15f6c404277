"""repro — reproduction of "Autotuning Apache TVM-based Scientific Applications
Using Bayesian Optimization" (SC 2023, Wu, Paramasivam, Taylor).

The package is a vertically integrated reimplementation of the paper's stack:

* :mod:`repro.te` / :mod:`repro.tir` / :mod:`repro.runtime` — a mini tensor
  compiler (the Apache TVM stand-in): tensor-expression language, schedule
  primitives, lowering to loop-nest IR, and CPU executors;
* :mod:`repro.configspace` — a ConfigSpace clone;
* :mod:`repro.ml` — random forest / gradient-boosted trees / genetic algorithm
  built from scratch on NumPy;
* :mod:`repro.ytopt` — the Bayesian-optimization autotuner (RF surrogate + LCB);
* :mod:`repro.autotvm` — AutoTVM with its four tuners;
* :mod:`repro.kernels` — PolyBench 3mm / LU / Cholesky in TE with the paper's
  tunable tiling spaces (Table 1);
* :mod:`repro.swing` — a calibrated analytical model of the Swing cluster's
  A100 GPUs used as the measurement backend (no GPU required);
* :mod:`repro.core` — the paper's proposed framework, tying it all together;
* :mod:`repro.experiments` — drivers regenerating every evaluation figure.

Quickstart::

    from repro.core import BayesianAutotuner, AutotuneConfig
    from repro.kernels import get_benchmark

    bench = get_benchmark("lu", "large")
    tuner = BayesianAutotuner.for_benchmark(bench, AutotuneConfig(max_evals=100, seed=0))
    result = tuner.run()
    print(result.best_config, result.best_runtime)
"""

__version__ = "1.0.0"

from repro import _lazy

# Each name imports its subpackage on first use, so `import repro.<x>`
# loads only what x needs (see repro._lazy).
__getattr__, __dir__, __all__ = _lazy.attach(
    __name__, {"core": ("BayesianAutotuner", "AutotuneConfig")}
)
__all__.append("__version__")
