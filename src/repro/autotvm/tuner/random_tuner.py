"""RandomTuner: enumerate the space in a random order (without replacement)."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.autotvm.tuner.base import Tuner

if TYPE_CHECKING:
    from repro.ytopt.problem import TuningProblem

#: Below this size the whole code permutation is materialized; above it,
#: rejection sampling against the visited set is cheaper than a 100M shuffle.
_SHUFFLE_LIMIT = 1_000_000


class RandomTuner(Tuner):
    """Uniform random search without repeats."""

    def __init__(self, problem: TuningProblem, seed: int | None = None) -> None:
        super().__init__(problem, seed=seed)
        n = len(self.view)
        self._order = self.rng.permutation(n) if n <= _SHUFFLE_LIMIT else None
        self._cursor = 0

    def next_batch(self, batch_size: int) -> list[int]:
        if self._order is None:
            return self._random_unvisited(batch_size)
        out: list[int] = []
        while self._cursor < len(self._order) and len(out) < batch_size:
            code = int(self._order[self._cursor])
            self._cursor += 1
            if code not in self.visited:
                out.append(code)
        return out
