"""Tuner base class: an AutoTVM strategy as an ask/tell optimizer.

A strategy searches the integer codes of its problem space's
:class:`~repro.configspace.space.IndexView`: the mixed-radix numbering of the
configurations with the first parameter varying fastest, AutoTVM's linear
order. Subclasses implement the strategy (``next_batch`` / ``update``) in
codes. The base class adapts it to the optimizer protocol
:class:`~repro.ytopt.AMBS` drives — ``ask_batch``/``ask`` hand out
:class:`~repro.configspace.Configuration` objects, ``tell`` takes any
configuration mapping — and owns the visited set and the measured-cost
history. AMBS owns everything else: measurement, clock charges, the database,
best tracking and telemetry.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING

from repro.common.rng import ensure_rng
from repro.configspace import Configuration

if TYPE_CHECKING:
    from repro.ytopt.problem import TuningProblem


class Tuner:
    """Base tuner; subclasses provide the candidate-selection strategy."""

    def __init__(self, problem: TuningProblem, seed: int | None = None) -> None:
        self.problem = problem
        self.view = problem.space.index_view()
        self.rng = ensure_rng(seed)
        self.visited: set[int] = set()
        #: Measured cost per code, in tell order (``FAILED_COST`` for a
        #: failed trial).
        self.costs: dict[int, float] = {}
        self._told: list[tuple[int, float]] = []

    # -- strategy interface -------------------------------------------------

    def has_next(self) -> bool:
        return len(self.visited) < len(self.view)

    def next_batch(self, batch_size: int) -> list[int]:
        raise NotImplementedError

    def update(self, codes: Sequence[int], costs: Sequence[float]) -> None:
        """Strategy hook called once per measured wave (default: no-op)."""

    # -- optimizer protocol -------------------------------------------------

    def ask_batch(self, n: int) -> list[Configuration]:
        """Up to ``n`` unvisited configs; ``[]`` once the strategy is exhausted.

        The tells since the last ask reach :meth:`update` first, as one wave.
        """
        if self._told:
            codes, costs = zip(*self._told)
            self._told = []
            self.update(codes, costs)
        if not self.has_next():
            return []
        codes = self.next_batch(n)
        return [self.view.configuration(row) for row in self.view.rows(codes)]

    def ask(self) -> Configuration | None:
        batch = self.ask_batch(1)
        return batch[0] if batch else None

    def tell(self, config: Mapping[str, object], cost: float) -> None:
        """Record one measured config (``cost == FAILED_COST``: it failed)."""
        code = self.view.code_of(config)
        self.visited.add(code)
        self.costs[code] = cost
        self._told.append((code, cost))

    # -- shared helpers ----------------------------------------------------

    def _random_unvisited(self, batch_size: int) -> list[int]:
        """Uniformly random unvisited codes (used by several strategies)."""
        out: list[int] = []
        n = len(self.view)
        attempts = 0
        while len(out) < batch_size and len(self.visited) + len(out) < n:
            code = int(self.rng.integers(n))
            if code in self.visited or code in out:
                attempts += 1
                if attempts > 10 * batch_size + 100:
                    # Dense visited set: fall back to scanning.
                    for code2 in range(n):
                        if code2 not in self.visited and code2 not in out:
                            out.append(code2)
                            if len(out) >= batch_size:
                                break
                    break
                continue
            out.append(code)
        return out
