"""The four AutoTVM tuner strategies compared in the paper (§3):

* ``RandomTuner`` — enumerate the space in random order;
* ``GridSearchTuner`` — enumerate the space in grid-search order;
* ``GATuner`` — genetic-algorithm search;
* ``XGBTuner`` — gradient-boosted-tree cost model ranking candidate batches.
"""

from repro.autotvm.tuner.base import Tuner
from repro.autotvm.tuner.random_tuner import RandomTuner
from repro.autotvm.tuner.gridsearch_tuner import GridSearchTuner
from repro.autotvm.tuner.ga_tuner import GATuner
from repro.autotvm.tuner.xgb_tuner import XGBTuner
from repro.bench.protocols import PAPER_XGB_TRIAL_CAP

__all__ = [
    "Tuner",
    "RandomTuner",
    "GridSearchTuner",
    "GATuner",
    "XGBTuner",
    "PAPER_XGB_TRIAL_CAP",
]
