"""GATuner: genetic-algorithm search over index-row genomes (AutoTVM §3)."""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.autotvm.tuner.base import Tuner
from repro.common.errors import TuningError
from repro.ml.ga import GeneticAlgorithm
from repro.runtime.measure import FAILED_COST

if TYPE_CHECKING:
    from repro.ytopt.problem import TuningProblem


class GATuner(Tuner):
    """Steady-state GA; fitness is negative log-cost (failures score -inf).

    A genome is an index row of the space's
    :class:`~repro.configspace.space.IndexView`: one value index per
    parameter.
    """

    def __init__(
        self,
        problem: TuningProblem,
        pop_size: int = 16,
        elite_num: int = 3,
        mutation_prob: float = 0.1,
        seed: int | None = None,
    ) -> None:
        super().__init__(problem, seed=seed)
        self.ga = GeneticAlgorithm(
            gene_sizes=[int(hp.size()) for hp in problem.space.get_hyperparameters()],
            pop_size=pop_size,
            elite_num=elite_num,
            mutation_prob=mutation_prob,
            seed=int(self.rng.integers(2**31)),
        )
        self._genome_of: dict[int, tuple[int, ...]] = {}

    def next_batch(self, batch_size: int) -> list[int]:
        out: list[int] = []
        stale = 0
        while len(out) < batch_size and stale < 20 * batch_size:
            genome = self.ga.ask()
            code = int(self.view.codes(genome))
            if code in self.visited or code in out:
                # Already measured: feed the known/neutral score back so the GA
                # keeps evolving rather than re-proposing duplicates forever.
                self.ga.tell(genome, self._known_fitness(code))
                stale += 1
                continue
            self._genome_of[code] = genome
            out.append(code)
        if not out and self.has_next():
            out = self._random_unvisited(batch_size)
            for code in out:
                self._genome_of[code] = self._genome(code)
        return out

    def _genome(self, code: int) -> tuple[int, ...]:
        return tuple(self.view.rows(code).tolist())

    @staticmethod
    def _fitness(cost: float) -> float:
        return -math.log(max(cost, 1e-30)) if cost != FAILED_COST else -1e30

    def _known_fitness(self, code: int) -> float:
        return self._fitness(self.costs.get(code, FAILED_COST))

    def update(self, codes: Sequence[int], costs: Sequence[float]) -> None:
        for code, cost in zip(codes, costs):
            genome = self._genome_of.get(code)
            if genome is None:
                genome = self._genome(code)
            try:
                self.ga.tell(genome, self._fitness(cost))
            except TuningError:
                # Genome came from the random fallback, never ask()ed: the GA
                # has no pending slot for it, which is fine — skip.
                pass
