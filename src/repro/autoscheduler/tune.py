"""User entry point: ``auto_schedule`` (the analogue of Ansor's ``tvm.auto_scheduler``).

A :class:`SearchTask` couples a TE computation with an evaluation backend:

* ``target="llvm"`` — candidates are really built and timed on the CPU;
* ``target="swing"`` — candidates are priced with the analytical A100 model,
  through a :class:`~repro.swing.profile.KernelProfile` derived automatically
  from the sketch (stage dimensions and tile parameters come from the
  computation itself — the "automatically generated search space").

``auto_schedule`` runs the evolutionary SketchPolicy for ``n_trials``
measurements on the one tuning loop (:class:`~repro.ytopt.search.AMBS`) and
returns the best schedule found, ready for ``build``.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.common.errors import TuningError
from repro.common.timing import VirtualClock
from repro.configspace import ConfigurationSpace, OrdinalHyperparameter
from repro.autoscheduler.cost_model import CostModel
from repro.autoscheduler.search_policy import EvolutionParams, SketchPolicy
from repro.autoscheduler.sketch import (
    Sketch,
    apply_sketch,
    generate_sketch,
    tile_candidates,
)
from repro.runtime.measure import Evaluator, LocalEvaluator
from repro.swing.evaluator import SwingEvaluator
from repro.swing.profile import GemmStageProfile, KernelProfile
from repro.te.schedule import Schedule
from repro.te.tensor import Tensor
from repro.telemetry.context import get_telemetry
from repro.telemetry.events import RunFinished, RunStarted, make_run_id
from repro.telemetry.meta import run_metadata
from repro.ytopt.database import PerformanceDatabase
from repro.ytopt.problem import TuningProblem
from repro.ytopt.search import AMBS

GraphBuilder = Callable[[], Sequence[Tensor]]


def profile_from_sketch(
    sketch: Sketch, name: str = "auto", dtype_bytes: int = 8
) -> KernelProfile:
    """Derive the analytical-model profile from the sketch (no hand profile)."""
    stages = []
    candidates: dict[str, tuple[int, ...]] = {}
    for plan in sketch.plans:
        if plan.kind != "multi_level_tile":
            continue
        stages.append(
            GemmStageProfile(
                name=plan.op_name,
                m=plan.extents[0],
                n=plan.extents[1],
                k=plan.reduce_extent,
                param_y=plan.params[0],
                param_x=plan.params[1],
            )
        )
        for p, e in zip(plan.params, plan.extents):
            candidates[p] = tuple(tile_candidates(e))
    return KernelProfile(
        kernel=name,
        size_name="auto",
        stages=tuple(stages),
        dtype_bytes=dtype_bytes,
        param_candidates=candidates,
    )


class SearchTask:
    """A computation to auto-schedule plus how to measure candidates."""

    def __init__(
        self,
        graph_builder: GraphBuilder,
        name: str = "auto_task",
        target: str = "llvm",
        evaluator: Evaluator | None = None,
    ) -> None:
        self.name = name
        self.graph_builder = graph_builder
        args = list(graph_builder())
        self.sketch = generate_sketch([t.op for t in args if _is_output(t, args)])
        if evaluator is not None:
            self.evaluator = evaluator
        elif target == "swing":
            self.evaluator = SwingEvaluator(
                profile_from_sketch(self.sketch, name=name),
                clock=VirtualClock(),
                number=1,
            )
        elif target in ("llvm", "cpu", "interp"):
            self.evaluator = LocalEvaluator(self._builder, target=target)
        else:
            raise TuningError(f"unknown auto_schedule target {target!r}")

    def _builder(self, annotation) -> tuple[Schedule, Sequence[Tensor]]:
        args = list(self.graph_builder())
        sketch = generate_sketch([t.op for t in args if _is_output(t, args)])
        return apply_sketch(sketch, annotation), args

    def apply_best(self, annotation) -> tuple[Schedule, Sequence[Tensor]]:
        """Instantiate a found annotation into a buildable (schedule, args)."""
        return self._builder(annotation)


def _is_output(t: Tensor, args: Sequence[Tensor]) -> bool:
    """Outputs = tensors no other arg consumes (graph sinks among the args)."""
    from repro.te.tensor import ComputeOp

    if not isinstance(t.op, ComputeOp):
        return False
    consumed = {
        id(inp)
        for other in args
        if isinstance(other.op, ComputeOp)
        for inp in other.op.input_tensors()
    }
    return id(t) not in consumed


@dataclass
class TuningOptions:
    """Search budget and policy settings."""

    n_trials: int = 64
    evolution: EvolutionParams = field(default_factory=EvolutionParams)
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.n_trials < 1:
            raise TuningError("n_trials must be >= 1")


@dataclass
class AutoScheduleResult:
    """Outcome of an auto_schedule run."""

    best_annotation: dict[str, int]
    best_cost: float
    n_trials: int
    database: PerformanceDatabase
    sketch: Sketch


def auto_schedule(
    task: SearchTask,
    options: TuningOptions | None = None,
    cost_model: CostModel | None = None,
) -> AutoScheduleResult:
    """Run the Ansor-style search; returns the best annotation found.

    The :class:`SketchPolicy` is the optimizer of the one tuning loop,
    :class:`~repro.ytopt.search.AMBS`, over a :class:`TuningProblem` whose
    space has one ordinal parameter per sketch tile size. Each round of
    ``num_measures_per_round`` annotations is measured one at a time, and
    the policy's own work is not charged to the process clock.
    """
    opts = options if options is not None else TuningOptions()
    policy = SketchPolicy(
        task.sketch, cost_model=cost_model, params=opts.evolution, seed=opts.seed
    )
    space = ConfigurationSpace(name=task.name)
    for param, extent in task.sketch.param_extents().items():
        space.add_hyperparameter(OrdinalHyperparameter(param, tile_candidates(extent)))
    search = AMBS(
        TuningProblem(space, task.evaluator, name=task.name),
        policy,
        max_evals=opts.n_trials,
        tuner_name="AutoScheduler",
        optimizer_overhead=0.0,
        batch_size=opts.evolution.num_measures_per_round,
        jobs=1,
    )
    tel = get_telemetry()
    run_id = make_run_id(task.name, "auto", "AutoScheduler", opts.seed)
    if tel.enabled:
        tel.emit(
            RunStarted(
                run_id=run_id,
                kernel=task.name,
                size_name="auto",
                tuner="AutoScheduler",
                seed=opts.seed,
                max_evals=opts.n_trials,
                metadata=run_metadata(seed=opts.seed, extra={"n_trials": opts.n_trials}),
            )
        )
    with tel.span("autoschedule", clock=getattr(task.evaluator, "clock", None)):
        result = search.run()
    best_annotation, best_cost = policy.best()
    if tel.enabled:
        tel.emit(
            RunFinished(
                run_id=run_id,
                best_runtime=best_cost,
                best_config={k: int(v) for k, v in best_annotation.items()},
                n_evals=result.n_evals,
                total_time=task.evaluator.elapsed(),
            )
        )
    return AutoScheduleResult(
        best_annotation=best_annotation,
        best_cost=best_cost,
        n_trials=result.n_evals,
        database=result.database,
        sketch=task.sketch,
    )
