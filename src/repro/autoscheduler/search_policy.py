"""Evolutionary search over sketch annotations (Ansor's SketchPolicy).

Each round: breed a population from the best measured annotations (mutation of
single tile sizes, uniform crossover), rank the population with the cost
model, measure the top-k unvisited candidates, and feed the results back into
the model. A fraction of each measured batch is sampled randomly (epsilon-
greedy) so the model cannot lock the search into its own blind spots.

The policy is an ask/tell optimizer (``ask_batch``/``ask``/``tell``), so
:func:`~repro.autoscheduler.tune.auto_schedule` runs it on the one tuning
loop, :class:`~repro.ytopt.search.AMBS`.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.common.errors import TuningError
from repro.common.rng import ensure_rng
from repro.autoscheduler.cost_model import CostModel, GBTCostModel
from repro.autoscheduler.sketch import Sketch, tile_candidates
from repro.runtime.measure import FAILED_COST


@dataclass(frozen=True)
class EvolutionParams:
    """Evolutionary-search settings (Ansor naming where it exists)."""

    population_size: int = 128
    num_measures_per_round: int = 8
    mutation_prob: float = 0.85
    eps_greedy: float = 0.15

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise TuningError("population_size must be >= 2")
        if self.num_measures_per_round < 1:
            raise TuningError("num_measures_per_round must be >= 1")
        if not 0.0 <= self.eps_greedy <= 1.0:
            raise TuningError("eps_greedy must be in [0, 1]")


class SketchPolicy:
    """Propose annotation batches; learn from told costs."""

    def __init__(
        self,
        sketch: Sketch,
        cost_model: CostModel | None = None,
        params: EvolutionParams | None = None,
        seed: int | None = None,
    ) -> None:
        self.sketch = sketch
        self.params = params if params is not None else EvolutionParams()
        self.cost_model = (
            cost_model if cost_model is not None else GBTCostModel(sketch, seed=seed)
        )
        self.rng = ensure_rng(seed)
        self._candidates = {
            p: tile_candidates(e) for p, e in sketch.param_extents().items()
        }
        self._visited: set[tuple[int, ...]] = set()
        self._measured: list[tuple[dict[str, int], float]] = []

    # -- annotation helpers ---------------------------------------------------

    def _key(self, annotation: Mapping[str, int]) -> tuple[int, ...]:
        return tuple(int(annotation[p]) for p in self.sketch.params)

    def _random_annotation(self) -> dict[str, int]:
        return {
            p: int(self._candidates[p][int(self.rng.integers(len(self._candidates[p])))])
            for p in self.sketch.params
        }

    def _mutate(self, annotation: Mapping[str, int]) -> dict[str, int]:
        out = dict(annotation)
        p = self.sketch.params[int(self.rng.integers(len(self.sketch.params)))]
        cands = self._candidates[p]
        cur = out[p]
        if cur in cands and len(cands) > 1 and self.rng.random() < 0.5:
            # Local move: adjacent candidate (tile sizes are ordered).
            i = cands.index(cur)
            j = int(np.clip(i + self.rng.choice((-1, 1)), 0, len(cands) - 1))
            out[p] = int(cands[j])
        else:
            out[p] = int(cands[int(self.rng.integers(len(cands)))])
        return out

    def _crossover(self, a: Mapping[str, int], b: Mapping[str, int]) -> dict[str, int]:
        return {
            p: int((a if self.rng.random() < 0.5 else b)[p])
            for p in self.sketch.params
        }

    # -- the policy -------------------------------------------------------------

    def propose_batch(self) -> list[dict[str, int]]:
        """Next annotations to measure (model-ranked top-k + random epsilon)."""
        n = self.params.num_measures_per_round
        n_random = max(1, int(round(self.params.eps_greedy * n))) if self._measured else n
        population = self._breed_population()
        scores = self.cost_model.predict(population)
        order = np.argsort(scores)

        batch: list[dict[str, int]] = []
        for idx in order:
            cand = population[int(idx)]
            key = self._key(cand)
            if key in self._visited or any(self._key(c) == key for c in batch):
                continue
            batch.append(cand)
            if len(batch) >= n - n_random:
                break
        # Epsilon-greedy random tail (and fill if the population was exhausted).
        guard = 0
        while len(batch) < n and guard < 200 * n:
            cand = self._random_annotation()
            key = self._key(cand)
            if key not in self._visited and all(self._key(c) != key for c in batch):
                batch.append(cand)
            guard += 1
        return batch

    def _breed_population(self) -> list[dict[str, int]]:
        size = self.params.population_size
        if not self._measured:
            return [self._random_annotation() for _ in range(size)]
        parents = sorted(self._measured, key=lambda kv: kv[1])[: max(2, size // 8)]
        population: list[dict[str, int]] = [dict(a) for a, _ in parents]
        while len(population) < size:
            if self.rng.random() < self.params.mutation_prob:
                base = parents[int(self.rng.integers(len(parents)))][0]
                population.append(self._mutate(base))
            else:
                a = parents[int(self.rng.integers(len(parents)))][0]
                b = parents[int(self.rng.integers(len(parents)))][0]
                population.append(self._crossover(a, b))
        return population

    # -- the optimizer protocol AMBS drives ------------------------------------

    def ask_batch(self, n: int) -> list[dict[str, int]]:
        """The first ``n`` annotations of the next proposed round (a whole
        round is bred and ranked whatever ``n`` is, so a budget that ends
        mid-round measures that round's head); ``[]`` when none is left."""
        return self.propose_batch()[:n]

    def ask(self) -> dict[str, int] | None:
        batch = self.ask_batch(1)
        return batch[0] if batch else None

    def tell(self, annotation: Mapping[str, int], cost: float) -> None:
        """Record a measured annotation; a cost of ``FAILED_COST`` or more
        (a failed trial) is kept as ``inf``, which the model skips and
        :meth:`best` never returns."""
        if cost >= FAILED_COST:
            cost = math.inf
        self._visited.add(self._key(annotation))
        self._measured.append((dict(annotation), float(cost)))
        self.cost_model.update([annotation], [cost])

    def best(self) -> tuple[dict[str, int], float]:
        ok = [(a, c) for a, c in self._measured if np.isfinite(c)]
        if not ok:
            raise TuningError("best() called before any successful measurement")
        return min(ok, key=lambda kv: kv[1])
