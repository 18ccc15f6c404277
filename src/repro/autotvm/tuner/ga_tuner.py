"""GATuner: genetic-algorithm search over knob-index genomes (AutoTVM §3)."""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.autotvm.space import ConfigEntity
from repro.common.errors import TuningError
from repro.autotvm.task import Task
from repro.autotvm.tuner.base import Tuner
from repro.ml.ga import GeneticAlgorithm
from repro.runtime.measure import FAILED_COST


class GATuner(Tuner):
    """Steady-state GA; fitness is negative log-cost (failures score -inf)."""

    def __init__(
        self,
        task: Task,
        pop_size: int = 16,
        elite_num: int = 3,
        mutation_prob: float = 0.1,
        seed: int | None = None,
    ) -> None:
        super().__init__(task, seed=seed)
        self.ga = GeneticAlgorithm(
            gene_sizes=self.space.gene_sizes(),
            pop_size=pop_size,
            elite_num=elite_num,
            mutation_prob=mutation_prob,
            seed=int(self.rng.integers(2**31)),
        )
        self._genome_of: dict[int, tuple[int, ...]] = {}

    def next_batch(self, batch_size: int) -> list[ConfigEntity]:
        out: list[ConfigEntity] = []
        stale = 0
        while len(out) < batch_size and stale < 20 * batch_size:
            genome = self.ga.ask()
            idx = self.space.indices_to_index(genome)
            if idx in self.visited or any(c.index == idx for c in out):
                # Already measured: feed the known/neutral score back so the GA
                # keeps evolving rather than re-proposing duplicates forever.
                self.ga.tell(genome, self._known_fitness(idx))
                stale += 1
                continue
            self._genome_of[idx] = genome
            out.append(self.space.get(idx))
        if not out and self.has_next():
            out = self._random_unvisited(batch_size)
            for c in out:
                self._genome_of[c.index] = c.knob_indices()
        return out

    @staticmethod
    def _fitness(cost: float) -> float:
        return -math.log(max(cost, 1e-30)) if cost != FAILED_COST else -1e30

    def _known_fitness(self, idx: int) -> float:
        return self._fitness(self.costs.get(idx, FAILED_COST))

    def update(self, configs: Sequence[ConfigEntity], costs: Sequence[float]) -> None:
        for config, cost in zip(configs, costs):
            genome = self._genome_of.get(config.index, config.knob_indices())
            try:
                self.ga.tell(genome, self._fitness(cost))
            except TuningError:
                # Genome came from the random fallback, never ask()ed: the GA
                # has no pending slot for it, which is fine — skip.
                pass
