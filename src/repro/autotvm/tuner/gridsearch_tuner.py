"""GridSearchTuner: enumerate the space in grid order.

AutoTVM's grid order walks the codes from 0, i.e. the first parameter varies
fastest and enumeration starts with every parameter at its *first* value.
With ascending tiling-factor lists that is the all-smallest-tiles corner — the
most launch-bound, lowest-efficiency region — which is exactly why the paper
finds GridSearchTuner "performed the worst for all the experiments": 100 trials
never escape the bad corner of a 400..228M-point space.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.autotvm.tuner.base import Tuner

if TYPE_CHECKING:
    from repro.ytopt.problem import TuningProblem


class GridSearchTuner(Tuner):
    """Deterministic sequential enumeration."""

    def __init__(self, problem: TuningProblem, seed: int | None = None) -> None:
        super().__init__(problem, seed=seed)
        self._cursor = 0

    def next_batch(self, batch_size: int) -> list[int]:
        out: list[int] = []
        n = len(self.view)
        while self._cursor < n and len(out) < batch_size:
            if self._cursor not in self.visited:
                out.append(self._cursor)
            self._cursor += 1
        return out

    def has_next(self) -> bool:
        return self._cursor < len(self.view)
