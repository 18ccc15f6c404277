"""Feature extraction from schedules — price *any* TE schedule on the model.

The registry profiles (:mod:`repro.kernels.registry`) hand-describe the
paper's kernels; this module derives the same information from an arbitrary
:class:`~repro.te.schedule.Schedule` instead, the way AutoTVM extracts
features from lowered IR:

* matmul-like stages (2 data-parallel axes, 1 reduction) contribute a
  :class:`~repro.swing.profile.GemmStageProfile` whose tile sizes are read off
  the stage's split relations (the first split factor per root axis — a full
  axis with no split counts as one block);
* elementwise stages contribute streaming memory time.

:class:`ScheduleSwingEvaluator` wraps this as a standard evaluator, so the
simulated backend works for user-defined kernels and code molds, not just the
registry benchmarks.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.common.errors import ReproError
from repro.common.timing import VirtualClock
from repro.runtime.measure import Evaluator, MeasureResult, ScheduleBuilder
from repro.swing.model import SwingPerformanceModel
from repro.swing.profile import GemmStageProfile
from repro.te.expr import Reduce
from repro.te.schedule import Schedule, SplitRelation, Stage
from repro.te.tensor import ComputeOp, IterVar


@dataclass(frozen=True)
class StageFeatures:
    """What the model needs from one stage."""

    name: str
    kind: str  # "gemm" | "elementwise"
    m: int
    n: int
    k: int
    ty: int
    tx: int
    elements: int  # output elements (for streaming stages)


def _first_split_factor(stage: Stage, root: IterVar) -> int:
    """The tile size of a root axis: its first split factor, else its extent."""
    for rel in stage.relations:
        if isinstance(rel, SplitRelation) and rel.parent is root:
            return rel.factor
    return root.extent


def extract_stage_features(stage: Stage) -> StageFeatures:
    """Classify a stage and pull out the model-relevant numbers."""
    op = stage.op
    assert isinstance(op, ComputeOp)
    elements = 1
    for iv in op.axis:
        elements *= iv.extent
    if (
        len(op.axis) >= 2
        and len(op.reduce_axis) == 1
        and isinstance(op.body, Reduce)
    ):
        # Use the two innermost data axes as the (y, x) plane; any outer data
        # axes (e.g. r of a batched SUM[r, q, p]) multiply the launch count
        # via m.
        *outer, y, x = op.axis
        outer_reps = 1
        for iv in outer:
            outer_reps *= iv.extent
        return StageFeatures(
            name=op.name,
            kind="gemm",
            m=y.extent * outer_reps,
            n=x.extent,
            k=op.reduce_axis[0].extent,
            ty=_first_split_factor(stage, y),
            tx=_first_split_factor(stage, x),
            elements=elements,
        )
    return StageFeatures(
        name=op.name, kind="elementwise", m=0, n=0, k=0, ty=0, tx=0,
        elements=elements,
    )


def price_schedule(
    sched: Schedule,
    model: SwingPerformanceModel | None = None,
    dtype_bytes: int = 8,
) -> float:
    """Raw (uncalibrated) modeled runtime of a whole schedule in seconds."""
    model = model if model is not None else SwingPerformanceModel()
    total = 0.0
    for stage in sched.stages:
        feats = extract_stage_features(stage)
        if feats.kind == "gemm":
            st = GemmStageProfile(
                name=feats.name,
                m=feats.m,
                n=feats.n,
                k=feats.k,
                param_y="ty",
                param_x="tx",
            )
            total += model.stage_time(st, feats.ty, feats.tx, dtype_bytes)
        else:
            # Streaming stage: read + write every element at HBM bandwidth,
            # plus a launch.
            bytes_moved = 2.0 * feats.elements * dtype_bytes
            total += bytes_moved / model.spec.hbm_bandwidth
            total += model.spec.kernel_launch_overhead
    if total <= 0.0:
        raise ReproError("schedule prices to non-positive time (empty schedule?)")
    return total


class ScheduleSwingEvaluator(Evaluator):
    """Simulated measurement for arbitrary ``params -> (Schedule, args)`` builders.

    The analogue of :class:`~repro.swing.evaluator.SwingEvaluator` when no
    registry profile exists: each evaluation builds the schedule (cheap — no
    execution), prices it with :func:`price_schedule`, and advances the
    virtual clock by a modeled compile time plus the priced runtime.
    """

    def __init__(
        self,
        builder: ScheduleBuilder,
        model: SwingPerformanceModel | None = None,
        clock: VirtualClock | None = None,
        dtype_bytes: int = 8,
        number: int = 1,
        compile_time: float = 1.2,
        measure_overhead: float = 0.05,
    ) -> None:
        if number < 1:
            raise ReproError("number must be >= 1")
        self.builder = builder
        self.model = model if model is not None else SwingPerformanceModel()
        self.clock = clock if clock is not None else VirtualClock()
        self.dtype_bytes = dtype_bytes
        self.number = number
        self.compile_time_s = compile_time
        self.measure_overhead = measure_overhead

    def elapsed(self) -> float:
        return self.clock.now

    def evaluate(self, params: Mapping[str, int]) -> MeasureResult:
        cfg = {k: int(v) for k, v in params.items()}
        try:
            sched, _args = self.builder(cfg)
            runtime = price_schedule(sched, self.model, self.dtype_bytes)
        except ReproError as exc:
            self.clock.advance(self.compile_time_s)
            return MeasureResult(
                config=cfg,
                costs=(),
                compile_time=self.compile_time_s,
                timestamp=self.clock.now,
                error=f"compile error: {exc}",
            )
        self.clock.advance(self.compile_time_s + runtime * self.number)
        self.clock.advance(self.measure_overhead)
        return MeasureResult(
            config=cfg,
            costs=(runtime,) * self.number,
            compile_time=self.compile_time_s,
            timestamp=self.clock.now,
            backend="swing",
        )
