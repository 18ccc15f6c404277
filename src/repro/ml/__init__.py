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

from repro.ml.tree import TREE_FORMAT_VERSION, DecisionTreeRegressor
from repro.ml.forest import RandomForestRegressor
from repro.ml.gbt import GradientBoostedTreesRegressor
from repro.ml.ga import GeneticAlgorithm

__all__ = [
    "TREE_FORMAT_VERSION",
    "DecisionTreeRegressor",
    "RandomForestRegressor",
    "GradientBoostedTreesRegressor",
    "GeneticAlgorithm",
]
