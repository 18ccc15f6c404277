"""TuningProblem: the user-facing problem definition (ytopt's ``Problem``).

Couples a :class:`~repro.configspace.ConfigurationSpace` with the evaluator that
scores configurations (real execution or simulated Swing measurement) — the
"user-defined interface that specifies how to evaluate the code mold with a
particular parameter configuration" of the paper's Figure 2/3.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.common.errors import SpaceError
from repro.configspace import ConfigurationSpace
from repro.runtime.measure import Evaluator, MeasureResult, evaluate_batch


class TuningProblem:
    """A parameter space plus an objective evaluator (lower cost is better)."""

    def __init__(
        self,
        space: ConfigurationSpace,
        evaluator: Evaluator,
        name: str = "problem",
    ) -> None:
        if len(space) == 0:
            raise SpaceError("TuningProblem requires a non-empty configuration space")
        self.space = space
        self.evaluator = evaluator
        self.name = name

    def objective(self, params: Mapping[str, int]) -> MeasureResult:
        """Evaluate one configuration (Steps 2–5 of the paper's loop)."""
        return self.evaluator.evaluate(params)

    def objective_batch(
        self, batch: Sequence[Mapping[str, int]], jobs: int = 1
    ) -> list[MeasureResult]:
        """Evaluate a batch of configurations, ``jobs`` at a time.

        Dispatches through :func:`repro.runtime.measure.evaluate_batch`:
        simulated evaluators charge the virtual clock by the max of each wave
        (a ``jobs``-wide fleet), not the sum; real ones measure one at a time.
        """
        return evaluate_batch(self.evaluator, batch, jobs=jobs)

    def __repr__(self) -> str:
        return f"TuningProblem({self.name!r}, space={self.space!r})"
