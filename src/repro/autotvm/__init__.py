"""AutoTVM reimplementation: the four tuner strategies the paper compares.

:class:`RandomTuner`, :class:`GridSearchTuner`, :class:`GATuner` and
:class:`XGBTuner` (backed by the from-scratch GBT model in
:mod:`repro.ml.gbt`) search the same :class:`~repro.configspace.ConfigurationSpace`
ytopt does, numbered in AutoTVM's linear order by its
:class:`~repro.configspace.space.IndexView`. Each tuner is an ask/tell
optimizer over a :class:`~repro.ytopt.TuningProblem`; :class:`repro.ytopt.AMBS`
drives it and measures its waves, the same loop that drives ytopt (see
:func:`repro.bench.tuners.autotvm_search`).
"""

from repro.autotvm.tuner import (
    Tuner,
    RandomTuner,
    GridSearchTuner,
    GATuner,
    XGBTuner,
    PAPER_XGB_TRIAL_CAP,
)

__all__ = [
    "Tuner",
    "RandomTuner",
    "GridSearchTuner",
    "GATuner",
    "XGBTuner",
    "PAPER_XGB_TRIAL_CAP",
]
