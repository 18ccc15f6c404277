"""BayesianAutotuner: the proposed TVM autotuning framework (paper Fig. 3).

The framework replaces AutoTVM's tuning module with ytopt's Bayesian
optimization. Its iterative phase (paper §3):

  Step 1  BO selects a parameter configuration;
  Step 2  the code mold is configured into new TE code;
  Step 3  the code is compiled to an executable;
  Step 4  the executable is run and timed;
  Step 5  the runtime is recorded in the performance database and fed back.

Unlike AutoTVM — which selects with its cost model and measures in batches —
every configuration here is measured once, directly (the paper's framing of
the difference, §3 last paragraph).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.common.errors import TuningError
from repro.configspace import ConfigurationSpace
from repro.kernels.registry import KernelBenchmark
from repro.runtime.measure import Evaluator, LocalEvaluator, ScheduleBuilder
from repro.swing import SwingEvaluator
from repro.ytopt.acquisition import LowerConfidenceBound
from repro.ytopt.optimizer import Optimizer, refit_policy
from repro.ytopt.problem import TuningProblem
from repro.ytopt.search import AMBS, SearchResult
from repro.ytopt.surrogate import RandomForestSurrogate, Surrogate


@dataclass
class AutotuneConfig:
    """Knobs of the framework itself (not of the kernel).

    ``kappa`` defaults to 1.0 rather than ytopt's documented 1.96: the
    bootstrap-forest predictive std of :mod:`repro.ml.forest` runs
    systematically larger than scikit-learn's leaf-variance estimate, so a
    smaller weight reproduces ytopt's *effective* exploration level (verified
    by the kappa-sweep ablation bench).
    """

    max_evals: int = 100
    max_time: float | None = None
    n_initial_points: int = 10
    kappa: float = 1.0
    seed: int | None = None
    #: >1 proposes constant-liar batches and measures them in parallel
    #: (``jobs`` wide; None = one worker per batched configuration).
    batch_size: int = 1
    jobs: int | None = None
    #: Surrogate-guided pruning (see :class:`repro.ytopt.search.AMBS`): skip
    #: compilation when the surrogate's lower confidence bound says the
    #: candidate cannot beat ``prune_threshold`` × the incumbent.
    prune: bool = False
    prune_threshold: float = 1.25
    #: ``refit_every`` is the default optimizer's refit policy (see
    #: :func:`repro.ytopt.optimizer.refit_policy`); ``pipeline=True`` with
    #: ``refit_every`` None means ``refit_every=0``, the geometric schedule.
    #: ``compile_jobs`` is the width of the build pool that native-tier
    #: builds under a real clock run in, compile-ahead included (None: cores,
    #: capped at 8; at 1 only the geometric schedule builds ahead, and
    #: without previews; see :mod:`repro.ytopt.search`).
    pipeline: bool = False
    compile_jobs: int | None = None
    refit_every: int | None = None

    def __post_init__(self) -> None:
        if self.max_evals < 1:
            raise TuningError(f"max_evals must be >= 1, got {self.max_evals}")
        if self.n_initial_points < 1:
            raise TuningError(
                f"n_initial_points must be >= 1, got {self.n_initial_points}"
            )
        if self.batch_size < 1:
            raise TuningError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.jobs is not None and self.jobs < 1:
            raise TuningError(f"jobs must be >= 1, got {self.jobs}")
        if self.compile_jobs is not None and self.compile_jobs < 1:
            raise TuningError(
                f"compile_jobs must be >= 1, got {self.compile_jobs}"
            )
        if self.refit_every is not None and self.refit_every < 0:
            raise TuningError(
                f"refit_every must be >= 0, got {self.refit_every}"
            )


class BayesianAutotuner:
    """One-stop front-end for the proposed framework."""

    def __init__(
        self,
        space: ConfigurationSpace,
        evaluator: Evaluator,
        config: AutotuneConfig | None = None,
        surrogate: Surrogate | None = None,
        name: str = "tvm-bo",
        warm_start=None,
        #: A :class:`repro.transfer.TransferSeed` (or None): seeds the
        #: optimizer's initial design from the run-store corpus and biases
        #: early acquisition by ``transfer_bias``.
        transfer_seed=None,
        transfer_bias: float = 0.0,
        #: A fully built ask/tell optimizer (e.g. a
        #: :class:`repro.ytopt.tpe.TPEOptimizer`). When given, the framework
        #: drives it as-is — ``surrogate``/``transfer_seed`` must then be
        #: configured on the optimizer itself, not here.
        optimizer: "Optimizer | None" = None,
    ) -> None:
        self.config = config if config is not None else AutotuneConfig()
        self.problem = TuningProblem(space, evaluator, name=name)
        if optimizer is not None:
            if surrogate is not None or transfer_seed is not None:
                raise TuningError(
                    "pass surrogate/transfer_seed either to BayesianAutotuner "
                    "(default optimizer) or configure the explicit optimizer, "
                    "not both"
                )
            self.optimizer = optimizer
        else:
            refit_every = self.config.refit_every
            if refit_every is None and self.config.pipeline:
                refit_every = 0
            refit_interval, refit_schedule = refit_policy(refit_every)
            self.optimizer = Optimizer(
                space,
                surrogate=(
                    surrogate
                    if surrogate is not None
                    else RandomForestSurrogate(seed=self.config.seed)
                ),
                acquisition=LowerConfidenceBound(kappa=self.config.kappa),
                n_initial_points=self.config.n_initial_points,
                refit_interval=refit_interval,
                refit_schedule=refit_schedule,
                seed=self.config.seed,
                transfer_seed=transfer_seed,
                transfer_bias=transfer_bias,
            )
        # warm_start accepts a WarmStart loader or a bare PerformanceDatabase.
        warm_db = getattr(warm_start, "database", warm_start)
        self._search = AMBS(
            self.problem,
            self.optimizer,
            max_evals=self.config.max_evals,
            max_time=self.config.max_time,
            tuner_name="ytopt",
            batch_size=self.config.batch_size,
            jobs=self.config.jobs,
            prune=self.config.prune,
            prune_threshold=self.config.prune_threshold,
            warm_start=warm_db,
            compile_jobs=self.config.compile_jobs,
        )

    # -- constructors -----------------------------------------------------

    @classmethod
    def for_benchmark(
        cls,
        benchmark: KernelBenchmark,
        config: AutotuneConfig | None = None,
        backend: str = "swing",
        surrogate: Surrogate | None = None,
    ) -> "BayesianAutotuner":
        """Tune one of the paper's experiments.

        ``backend="swing"`` prices configurations with the simulated cluster
        (the paper's setting); ``backend="local"`` really builds and runs the
        TE kernel on this machine — only sensible at mini/small problem sizes.
        """
        cfg = config if config is not None else AutotuneConfig()
        if backend == "swing":
            evaluator: Evaluator = SwingEvaluator(benchmark.profile, number=1)
        elif backend == "local":
            evaluator = LocalEvaluator(benchmark.schedule_builder)
        else:
            raise TuningError(f"unknown backend {backend!r}; use 'swing' or 'local'")
        return cls(
            benchmark.config_space(seed=cfg.seed),
            evaluator,
            config=cfg,
            surrogate=surrogate,
            name=benchmark.name,
        )

    @classmethod
    def for_schedule_builder(
        cls,
        space: ConfigurationSpace,
        builder: ScheduleBuilder,
        config: AutotuneConfig | None = None,
        target: str = "llvm",
        name: str = "custom",
    ) -> "BayesianAutotuner":
        """Tune an arbitrary user kernel by real execution."""
        return cls(
            space, LocalEvaluator(builder, target=target), config=config, name=name
        )

    # -- running ----------------------------------------------------------

    def run(self, max_evals: int | None = None) -> SearchResult:
        """Execute the autotuning loop; returns the best configuration found."""
        if max_evals is not None:
            self._search.max_evals = max_evals
        return self._search.run()

    def best(self) -> tuple[Mapping[str, int], float]:
        return self.optimizer.best()
