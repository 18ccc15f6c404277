"""Transfer learning from tuning records (AutoTVM's history reuse).

Two mechanisms, mirroring ``tvm.autotvm``:

* :func:`apply_history_best` — given saved tuning records, pick the best
  configuration for a task without re-tuning (TVM's ``ApplyHistoryBest``
  context, used after "the best schedule is selected based on the tuning
  results", paper §2.1);
* :func:`warm_start` — seed a model-based tuner (XGBTuner) with prior
  records so its cost model starts trained, letting a new tuning run on the
  same task skip the cold-start phase.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from repro.autotvm.record import TuningRecord
from repro.autotvm.space import ConfigEntity
from repro.autotvm.task import Task
from repro.autotvm.tuner.xgb_tuner import XGBTuner
from repro.common.errors import TuningError


def _config_index(task: Task, config: dict[str, int]) -> int | None:
    """Locate a record's config in the task's space (None if incompatible)."""
    try:
        indices = []
        for name in task.space.knob_names:
            cands = task.space.knob_candidates(name)
            if name not in config or config[name] not in cands:
                return None
            indices.append(cands.index(config[name]))
        return task.space.indices_to_index(indices)
    except TuningError:
        return None


def apply_history_best(
    task: Task, records: Iterable[TuningRecord]
) -> tuple[ConfigEntity, float]:
    """Best recorded configuration applicable to ``task``.

    Records whose task name differs or whose knobs do not exist in the task's
    space are skipped (they came from another shape).
    """
    best_cost = math.inf
    best_entity: ConfigEntity | None = None
    for rec in records:
        if rec.task != task.name or not rec.ok or not rec.costs:
            continue
        idx = _config_index(task, rec.config)
        if idx is None:
            continue
        if rec.mean_cost < best_cost:
            best_cost = rec.mean_cost
            best_entity = task.space.get(idx)
    if best_entity is None:
        raise TuningError(
            f"no applicable successful records for task {task.name!r}"
        )
    return best_entity, best_cost


def warm_start(tuner: XGBTuner, records: Iterable[TuningRecord]) -> int:
    """Feed prior records into a model-based tuner before tuning.

    Returns the number of records absorbed. Visited configurations are marked
    so the new run never re-measures them; the cost model trains on the
    transferred observations immediately.
    """
    absorbed = 0
    for rec in records:
        if rec.task != tuner.task.name:
            continue
        idx = _config_index(tuner.task, rec.config)
        if idx is None:
            continue
        tuner.visited.add(idx)
        if rec.ok and rec.costs:
            config = tuner.space.get(idx)
            tuner._X.append(tuner._features(config))
            tuner._y.append(math.log(max(rec.mean_cost, 1e-30)))
        absorbed += 1
    if len(tuner._y) >= tuner.min_train:
        # Force an immediate model fit on the transferred data.
        from repro.ml.gbt import GradientBoostedTreesRegressor

        import numpy as np

        tuner.model = GradientBoostedTreesRegressor(
            n_estimators=50, max_depth=3, subsample=0.9,
            seed=int(tuner.rng.integers(2**31)),
        )
        tuner.model.fit(np.vstack(tuner._X), np.asarray(tuner._y))
        tuner._since_fit = 0
    return absorbed
