"""XGBTuner: cost-model-guided search (gradient-boosted trees).

AutoTVM's XGBTuner "trains a XGBoost model to predict the runtime of lowered IR
and picks the next batch according to the prediction" (paper §3). This
reimplementation keeps the architecture: train a boosted-tree model on the
measured (parameter features → log runtime) pairs, rank a large candidate
pool by predicted runtime, keep the top ``plan_size`` as the measurement
*plan*, and drain the plan in batches, refitting periodically.

The paper observes that "XGBoost search tuner could only do at most 56
evaluations no matter how many evaluations are set for some reason". The
experiment drivers reproduce that by capping AutoTVM-XGB's evaluation budget
at :data:`~repro.bench.protocols.PAPER_XGB_TRIAL_CAP` = 56 (documented in
DESIGN.md), so the figures show the same truncated trajectories; the tuner
itself is uncapped.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.autotvm.tuner.base import Tuner
from repro.common.errors import TuningError
from repro.ml.gbt import GradientBoostedTreesRegressor
from repro.runtime.measure import FAILED_COST

if TYPE_CHECKING:
    from repro.ytopt.problem import TuningProblem


class XGBTuner(Tuner):
    """Model-based tuner with a ranked measurement plan."""

    def __init__(
        self,
        problem: TuningProblem,
        plan_size: int = 16,
        candidate_num: int = 2048,
        min_train: int = 8,
        refit_every: int = 8,
        seed: int | None = None,
    ) -> None:
        super().__init__(problem, seed=seed)
        if plan_size < 1:
            raise TuningError(f"plan_size must be >= 1, got {plan_size}")
        if candidate_num < plan_size:
            raise TuningError("candidate_num must be >= plan_size")
        self.plan_size = plan_size
        self.candidate_num = candidate_num
        self.min_train = min_train
        self.refit_every = refit_every
        self.model: GradientBoostedTreesRegressor | None = None
        self._X: list[np.ndarray] = []
        self._y: list[float] = []
        self._since_fit = 0
        self._plan: list[int] = []
        #: Modeled cost of one model refit + plan ranking (charged to the
        #: virtual clock by update()).
        self.model_overhead = 0.4
        #: Per parameter, the log2 magnitude of each value (0.0 for a value
        #: that is not a positive number).
        self._log2 = [
            np.array([_log2(hp.value_at(i)) for i in range(int(hp.size()))])
            for hp in problem.space.get_hyperparameters()
        ]

    # -- features -------------------------------------------------------------

    def _features(self, codes: Sequence[int]) -> np.ndarray:
        """Per-parameter features of each code, interleaved: the normalized
        value index, then the value's log2 magnitude."""
        rows = self.view.rows(codes)
        X = np.empty((len(rows), 2 * len(self._log2)))
        X[:, 0::2] = self.view.encode(rows)
        for j, table in enumerate(self._log2):
            X[:, 2 * j + 1] = table[rows[:, j]]
        return X

    # -- strategy ---------------------------------------------------------------

    def next_batch(self, batch_size: int) -> list[int]:
        if self.model is None or len(self._y) < self.min_train:
            return self._random_unvisited(batch_size)
        # Once the wave holds every unvisited config, a refreshed plan could
        # only re-rank them: stop with a short wave instead of spinning.
        want = min(batch_size, len(self.view) - len(self.visited))
        out: list[int] = []
        while len(out) < want:
            if not self._plan:
                self._refresh_plan()
                if not self._plan:
                    break
            code = self._plan.pop(0)
            if code in self.visited or code in out:
                continue
            out.append(code)
        if len(out) < want:
            out.extend(self._random_unvisited(want - len(out)))
        return out

    def _candidate_codes(self) -> list[int]:
        n = len(self.view)
        # Sampling needs more unvisited configs than it draws, or it spins.
        if n <= self.candidate_num or n - len(self.visited) < self.candidate_num:
            return [i for i in range(n) if i not in self.visited]
        picks: set[int] = set()
        while len(picks) < self.candidate_num:
            code = int(self.rng.integers(n))
            if code not in self.visited:
                picks.add(code)
        return list(picks)

    def _refresh_plan(self) -> None:
        assert self.model is not None
        candidates = self._candidate_codes()
        if not candidates:
            self._plan = []
            return
        pred = self.model.predict(self._features(candidates))  # log cost, lower = better
        order = np.argsort(pred)[: self.plan_size]
        self._plan = [candidates[int(i)] for i in order]

    def update(self, codes: Sequence[int], costs: Sequence[float]) -> None:
        ok = [(code, cost) for code, cost in zip(codes, costs) if cost != FAILED_COST]
        if ok:
            self._X.append(self._features([code for code, _ in ok]))
            self._y.extend(math.log(max(cost, 1e-30)) for _, cost in ok)
        self._since_fit += len(codes)
        if len(self._y) >= self.min_train and (
            self.model is None or self._since_fit >= self.refit_every
        ):
            self.model = GradientBoostedTreesRegressor(
                n_estimators=50,
                max_depth=3,
                subsample=0.9,
                seed=int(self.rng.integers(2**31)),
            )
            self.model.fit(np.vstack(self._X), np.asarray(self._y))
            self._since_fit = 0
            self._plan = []  # stale ranking
            clock = getattr(self.problem.evaluator, "clock", None)
            if clock is not None:
                clock.advance(self.model_overhead)


def _log2(value: object) -> float:
    if isinstance(value, (int, float)) and value > 0:
        return math.log2(float(value))
    return 0.0
