"""Tuner base class: an AutoTVM strategy as an ask/tell optimizer.

Subclasses implement the strategy (``next_batch`` / ``update``). The base class
adapts it to the optimizer protocol :class:`~repro.ytopt.AMBS` drives —
``ask_batch``/``ask``/``tell`` — and owns the visited set and the measured-cost
history. AMBS owns everything else: measurement, clock charges, the database,
best tracking and telemetry.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.autotvm.space import ConfigEntity
from repro.autotvm.task import Task
from repro.common.rng import ensure_rng


class Tuner:
    """Base tuner; subclasses provide the candidate-selection strategy."""

    def __init__(self, task: Task, seed: int | None = None) -> None:
        self.task = task
        self.space = task.space
        self.rng = ensure_rng(seed)
        self.visited: set[int] = set()
        #: Measured cost per config index, in tell order (``FAILED_COST`` for
        #: a failed trial).
        self.costs: dict[int, float] = {}
        self._told: list[tuple[ConfigEntity, float]] = []

    # -- strategy interface -------------------------------------------------

    def has_next(self) -> bool:
        return len(self.visited) < len(self.space)

    def next_batch(self, batch_size: int) -> list[ConfigEntity]:
        raise NotImplementedError

    def update(self, configs: Sequence[ConfigEntity], costs: Sequence[float]) -> None:
        """Strategy hook called once per measured wave (default: no-op)."""

    # -- optimizer protocol -------------------------------------------------

    def ask_batch(self, n: int) -> list[ConfigEntity]:
        """Up to ``n`` unvisited configs; ``[]`` once the strategy is exhausted.

        The tells since the last ask reach :meth:`update` first, as one wave.
        """
        if self._told:
            configs, costs = zip(*self._told)
            self._told = []
            self.update(configs, costs)
        return self.next_batch(n) if self.has_next() else []

    def ask(self) -> ConfigEntity | None:
        batch = self.ask_batch(1)
        return batch[0] if batch else None

    def tell(self, config: ConfigEntity, cost: float) -> None:
        """Record one measured config (``cost == FAILED_COST``: it failed)."""
        self.visited.add(config.index)
        self.costs[config.index] = cost
        self._told.append((config, cost))

    # -- shared helpers ----------------------------------------------------

    def _random_unvisited(self, batch_size: int) -> list[ConfigEntity]:
        """Uniformly random unvisited configs (used by several strategies)."""
        out: list[ConfigEntity] = []
        n = len(self.space)
        attempts = 0
        while len(out) < batch_size and len(self.visited) + len(out) < n:
            idx = int(self.rng.integers(n))
            if idx in self.visited or any(c.index == idx for c in out):
                attempts += 1
                if attempts > 10 * batch_size + 100:
                    # Dense visited set: fall back to scanning.
                    for idx2 in range(n):
                        if idx2 not in self.visited and all(c.index != idx2 for c in out):
                            out.append(self.space.get(idx2))
                            if len(out) >= batch_size:
                                break
                    break
                continue
            out.append(self.space.get(idx))
        return out
