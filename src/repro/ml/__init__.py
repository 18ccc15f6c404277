"""From-scratch machine-learning substrates.

These replace the third-party dependencies the paper's stack uses:

* :mod:`repro.ml.tree` / :mod:`repro.ml.forest` — CART regression trees and a
  random forest with per-tree predictive variance (stands in for scikit-learn's
  ``RandomForestRegressor`` as ytopt's surrogate), grown together and stored
  as flat node arrays (``TREE_FORMAT_VERSION`` versions that layout for
  pickled models);
* :mod:`repro.ml.gbt` — gradient-boosted regression trees (stands in for XGBoost
  inside AutoTVM's XGBTuner);
* :mod:`repro.ml.ga` — a steady-state genetic algorithm over index genomes (the
  engine of AutoTVM's GATuner).

All of them operate on plain NumPy arrays and accept explicit seeds.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(
    __name__,
    {
        "tree": ("TREE_FORMAT_VERSION", "DecisionTreeRegressor"),
        "forest": ("RandomForestRegressor",),
        "gbt": ("GradientBoostedTreesRegressor",),
        "ga": ("GeneticAlgorithm",),
    },
)
