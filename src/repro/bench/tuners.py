"""Built-in tuner adapters: the paper's five plus the GP and TPE families.

Each :class:`~repro.bench.protocols.TunerSpec` factory binds a search
strategy to a :class:`~repro.bench.protocols.TunerContext` and returns the
search, whose single ``run()`` yields a
:class:`~repro.ytopt.search.SearchResult`. Every family runs through the one
:class:`~repro.ytopt.AMBS` loop: the BO families through
:class:`~repro.core.framework.BayesianAutotuner`, the four AutoTVM strategies
as ask/tell optimizers (:func:`autotvm_search`). Construction mirrors what
:class:`repro.service.session.TuningSession` has always done argument-for-
argument, so routing the paper tuners through the registry leaves their
seeded trajectories byte-identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.bench.protocols import TunerContext, TunerSpec
from repro.bench.registry import register_tuner

if TYPE_CHECKING:
    from repro.autotvm import Tuner
    from repro.core.framework import AutotuneConfig, BayesianAutotuner
    from repro.ytopt.search import AMBS

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

#: AutoTVM tuner name -> its strategy class in :mod:`repro.autotvm`. Each
#: factory imports the search stack it builds when a session of its tuner is
#: built, so listing the tuners loads none of it.
_AUTOTVM_CLASSES = {
    "AutoTVM-Random": "RandomTuner",
    "AutoTVM-GridSearch": "GridSearchTuner",
    "AutoTVM-GA": "GATuner",
    "AutoTVM-XGB": "XGBTuner",
}


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
    from repro.ytopt.search import AMBS

    return AMBS(
        tuner.problem,
        optimizer=tuner,
        batch_size=8,
        jobs=jobs,
        optimizer_overhead=0.5,
        max_evals=max_evals,
        tuner_name=name,
    )


def _bo_config(ctx: TunerContext) -> AutotuneConfig:
    from repro.core.framework import AutotuneConfig

    spec = ctx.spec
    return AutotuneConfig(
        max_evals=spec.max_evals,
        seed=spec.seed,
        batch_size=spec.jobs,
        jobs=spec.jobs,
        prune=spec.prune,
        prune_threshold=spec.prune_threshold,
        pipeline=spec.pipeline,
        compile_jobs=spec.compile_jobs,
        refit_every=spec.refit_every,
    )


def _make_ytopt(ctx: TunerContext) -> BayesianAutotuner:
    from repro.core.framework import BayesianAutotuner

    return BayesianAutotuner(
        ctx.benchmark.config_space(seed=ctx.spec.seed),
        ctx.evaluator,
        config=_bo_config(ctx),
        name=ctx.benchmark.name,
        warm_start=ctx.warm_start,
        transfer_seed=ctx.transfer_seed,
        transfer_bias=ctx.spec.transfer_bias,
    )


def _make_ytopt_gp(ctx: TunerContext) -> BayesianAutotuner:
    from repro.core.framework import BayesianAutotuner
    from repro.ytopt.surrogate import GaussianProcessSurrogate

    return BayesianAutotuner(
        ctx.benchmark.config_space(seed=ctx.spec.seed),
        ctx.evaluator,
        config=_bo_config(ctx),
        surrogate=GaussianProcessSurrogate(seed=ctx.spec.seed),
        name=ctx.benchmark.name,
        warm_start=ctx.warm_start,
    )


def _make_ytopt_tpe(ctx: TunerContext) -> BayesianAutotuner:
    from repro.core.framework import BayesianAutotuner
    from repro.ytopt.tpe import TPEOptimizer

    space = ctx.benchmark.config_space(seed=ctx.spec.seed)
    cfg = _bo_config(ctx)
    return BayesianAutotuner(
        space,
        ctx.evaluator,
        config=cfg,
        name=ctx.benchmark.name,
        warm_start=ctx.warm_start,
        optimizer=TPEOptimizer(
            space, n_initial_points=cfg.n_initial_points, seed=ctx.spec.seed
        ),
    )


def _make_autotvm(name: str):
    def factory(ctx: TunerContext) -> AMBS:
        from repro import autotvm
        from repro.ytopt.problem import TuningProblem

        spec = ctx.spec
        problem = TuningProblem(
            ctx.benchmark.config_space(seed=spec.seed), ctx.evaluator, name=ctx.benchmark.name
        )
        tuner = getattr(autotvm, _AUTOTVM_CLASSES[name])(problem, seed=spec.seed)
        max_evals = spec.max_evals
        if name == "AutoTVM-XGB" and ctx.xgb_trial_cap is not None:
            max_evals = min(max_evals, ctx.xgb_trial_cap)
        return autotvm_search(tuner, max_evals, jobs=spec.jobs, name=name)

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
