"""Built-in tuner adapters: the paper's five plus the GP and TPE families.

Each :class:`~repro.bench.protocols.TunerSpec` factory binds a search
strategy to a :class:`~repro.bench.protocols.TunerContext` and returns a
:class:`BoundSearch` whose single ``run()`` yields a neutral
:class:`~repro.bench.protocols.TuneOutcome`. Every family runs through the
one :class:`~repro.ytopt.AMBS` loop: the BO families through
:class:`~repro.core.framework.BayesianAutotuner`, the four AutoTVM strategies
as ask/tell optimizers (:func:`autotvm_search`). Construction mirrors what
:class:`repro.service.session.TuningSession` has always done argument-for-
argument, so routing the paper tuners through the registry leaves their
seeded trajectories byte-identical.
"""

from __future__ import annotations

from repro.autotvm import (
    GATuner,
    GridSearchTuner,
    RandomTuner,
    Tuner,
    XGBTuner,
    task_from_benchmark,
)
from repro.bench.protocols import TuneOutcome, TunerContext, TunerSpec
from repro.bench.registry import register_tuner
from repro.core.framework import AutotuneConfig, BayesianAutotuner
from repro.ytopt import AMBS, TuningProblem
from repro.ytopt.surrogate import GaussianProcessSurrogate
from repro.ytopt.tpe import TPEOptimizer

#: Paper legend order first, then the two new surrogate families.
BUILTIN_ORDER = (
    "ytopt",
    "AutoTVM-Random",
    "AutoTVM-GridSearch",
    "AutoTVM-GA",
    "AutoTVM-XGB",
    "ytopt-gp",
    "ytopt-tpe",
)

_AUTOTVM_CLASSES = {
    "AutoTVM-Random": RandomTuner,
    "AutoTVM-GridSearch": GridSearchTuner,
    "AutoTVM-GA": GATuner,
    "AutoTVM-XGB": XGBTuner,
}


class BoundSearch:
    """A tuner bound to one benchmark: one AMBS search, BO or AutoTVM."""

    def __init__(self, search: "BayesianAutotuner | AMBS") -> None:
        self.search = search
        self.optimizer = search.optimizer

    def run(self) -> TuneOutcome:
        result = self.search.run()
        return TuneOutcome(
            best_config=result.best_config,
            best_runtime=result.best_runtime,
            n_evals=result.n_evals,
            total_time=result.total_elapsed,
            trajectory=result.database.trajectory(),
            overhead=result.overhead,
        )


def autotvm_search(
    tuner: Tuner, max_evals: int, jobs: int = 1, name: str = "autotvm"
) -> AMBS:
    """The AMBS loop over an AutoTVM strategy, with AutoTVM's batch semantics.

    AutoTVM measures in waves of 8 configurations (its default builder
    parallelism) and pays ~0.5 s of dispatch and teardown per wave, charged
    to the virtual clock once per wave. The batch structure is why AutoTVM's
    process time per evaluation differs from ytopt's: compilation is
    amortized across the wave while execution is repeated (``number=3``, see
    :func:`repro.service.session.make_evaluator`) — faster per evaluation
    than ytopt at LARGE sizes (compile-dominated), much slower at EXTRALARGE
    (3–4 runs of a 14-second kernel). ``jobs`` > 1 measures each wave that
    many configurations at a time.
    """
    problem = TuningProblem(tuner.space, tuner.task.evaluator, name=tuner.task.name)
    return AMBS(
        problem,
        optimizer=tuner,
        batch_size=8,
        jobs=jobs,
        optimizer_overhead=0.5,
        max_evals=max_evals,
        tuner_name=name,
    )


def _bo_config(ctx: TunerContext) -> AutotuneConfig:
    return AutotuneConfig(
        max_evals=ctx.max_evals,
        seed=ctx.seed,
        batch_size=ctx.jobs,
        jobs=ctx.jobs,
        prune=ctx.prune,
        prune_threshold=ctx.prune_threshold,
        pipeline=ctx.pipeline,
        compile_jobs=ctx.compile_jobs,
        refit_every=ctx.refit_every,
    )


def _make_ytopt(ctx: TunerContext) -> BoundSearch:
    return BoundSearch(
        BayesianAutotuner(
            ctx.benchmark.config_space(seed=ctx.seed),
            ctx.evaluator,
            config=_bo_config(ctx),
            name=ctx.benchmark.name,
            warm_start=ctx.warm_start,
            transfer_seed=ctx.transfer_seed,
            transfer_bias=ctx.transfer_bias,
        )
    )


def _make_ytopt_gp(ctx: TunerContext) -> BoundSearch:
    return BoundSearch(
        BayesianAutotuner(
            ctx.benchmark.config_space(seed=ctx.seed),
            ctx.evaluator,
            config=_bo_config(ctx),
            surrogate=GaussianProcessSurrogate(seed=ctx.seed),
            name=ctx.benchmark.name,
            warm_start=ctx.warm_start,
        )
    )


def _make_ytopt_tpe(ctx: TunerContext) -> BoundSearch:
    space = ctx.benchmark.config_space(seed=ctx.seed)
    cfg = _bo_config(ctx)
    return BoundSearch(
        BayesianAutotuner(
            space,
            ctx.evaluator,
            config=cfg,
            name=ctx.benchmark.name,
            warm_start=ctx.warm_start,
            optimizer=TPEOptimizer(
                space, n_initial_points=cfg.n_initial_points, seed=ctx.seed
            ),
        )
    )


def _make_autotvm(name: str):
    cls = _AUTOTVM_CLASSES[name]

    def factory(ctx: TunerContext) -> BoundSearch:
        tuner = cls(task_from_benchmark(ctx.benchmark, ctx.evaluator), seed=ctx.seed)
        max_evals = ctx.max_evals
        if cls is XGBTuner and ctx.xgb_trial_cap is not None:
            max_evals = min(max_evals, ctx.xgb_trial_cap)
        return BoundSearch(autotvm_search(tuner, max_evals, jobs=ctx.jobs, name=name))

    return factory


_DESCRIPTIONS = {
    "ytopt": "Bayesian optimization, RF surrogate + LCB (the paper's tuner)",
    "AutoTVM-Random": "uniform random search over the tiling space",
    "AutoTVM-GridSearch": "exhaustive sweep in declaration order",
    "AutoTVM-GA": "genetic algorithm over candidate-index genomes",
    "AutoTVM-XGB": "boosted-tree cost model with batch selection",
    "ytopt-gp": "Bayesian optimization, Gaussian-process surrogate + LCB",
    "ytopt-tpe": "tree-structured Parzen estimator (density-ratio search)",
}


def register_builtin_tuners() -> None:
    register_tuner(
        TunerSpec(
            name="ytopt",
            family="bo",
            description=_DESCRIPTIONS["ytopt"],
            factory=_make_ytopt,
            supports_transfer=True,
        ),
        replace=True,
    )
    for name in _AUTOTVM_CLASSES:
        register_tuner(
            TunerSpec(
                name=name,
                family="autotvm",
                description=_DESCRIPTIONS[name],
                factory=_make_autotvm(name),
            ),
            replace=True,
        )
    register_tuner(
        TunerSpec(
            name="ytopt-gp",
            family="bo",
            description=_DESCRIPTIONS["ytopt-gp"],
            factory=_make_ytopt_gp,
        ),
        replace=True,
    )
    register_tuner(
        TunerSpec(
            name="ytopt-tpe",
            family="bo",
            description=_DESCRIPTIONS["ytopt-tpe"],
            factory=_make_ytopt_tpe,
        ),
        replace=True,
    )
