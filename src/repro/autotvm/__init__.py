"""AutoTVM reimplementation: knob-based config spaces and the four tuners.

Mirrors the structure of ``tvm.autotvm``: a :class:`ConfigSpace` built from
``define_knob`` calls, indexable :class:`ConfigEntity` points, tuning records,
and the four tuner strategies the paper compares — :class:`RandomTuner`,
:class:`GridSearchTuner`, :class:`GATuner`, :class:`XGBTuner` (backed by the
from-scratch GBT model in :mod:`repro.ml.gbt`). Each tuner is an ask/tell
optimizer; :class:`repro.ytopt.AMBS` drives it and measures its waves, the
same loop that drives ytopt (see :func:`repro.bench.tuners.autotvm_search`).
"""

from repro.autotvm.space import ConfigSpace, ConfigEntity
from repro.autotvm.task import Task, task_from_benchmark
from repro.autotvm.record import TuningRecord, encode_record, decode_record, load_records, save_records
from repro.autotvm.transfer import apply_history_best, warm_start
from repro.autotvm.tuner import (
    Tuner,
    RandomTuner,
    GridSearchTuner,
    GATuner,
    XGBTuner,
    PAPER_XGB_TRIAL_CAP,
)

__all__ = [
    "ConfigSpace",
    "ConfigEntity",
    "Task",
    "task_from_benchmark",
    "TuningRecord",
    "encode_record",
    "decode_record",
    "load_records",
    "save_records",
    "apply_history_best",
    "warm_start",
    "Tuner",
    "RandomTuner",
    "GridSearchTuner",
    "GATuner",
    "XGBTuner",
    "PAPER_XGB_TRIAL_CAP",
]
