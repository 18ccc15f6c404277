"""The entry-point types of the benchmark/tuner registry.

A *benchmark* is everything a tuner needs to optimize one kernel at one
problem size: the parameter space ("config_space"), the code mold that turns
a configuration into a schedule ("schedule_builder"), and an engine that
prices or executes the result (an evaluator). Every registered benchmark is
a :class:`~repro.kernels.registry.KernelBenchmark`. A *tuner* is an ask/tell
search strategy bound to a benchmark + evaluator pair: a :class:`TunerSpec`
factory returns its search (a
:class:`~repro.core.framework.BayesianAutotuner`, or the
:class:`~repro.ytopt.search.AMBS` loop over an AutoTVM strategy), whose
``run()`` gives a :class:`~repro.ytopt.search.SearchResult`. The shapes
follow CATBench's decomposition (benchmark = space + mold + engine, tuner =
adapter), so new kernels and new search families compose with the existing
evaluator / telemetry / multi-fidelity / transfer stack instead of being
hand-wired.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.runtime.measure import Evaluator

if TYPE_CHECKING:
    from repro.core.framework import BayesianAutotuner
    from repro.kernels.registry import KernelBenchmark
    from repro.service.jobs import JobSpec
    from repro.ytopt.search import AMBS

#: The evaluation count at which the paper's AutoTVM-XGB runs always stopped
#: ("at most 56 evaluations no matter how many evaluations are set"). The
#: default ``xgb_trial_cap`` of sessions and experiments; the tuner itself is
#: uncapped.
PAPER_XGB_TRIAL_CAP = 56


@dataclass
class TunerContext:
    """Everything a tuner factory may bind: the benchmark, its engine, the
    session's :class:`~repro.service.jobs.JobSpec`, and what the session
    loaded for it.

    Factories read the spec knobs their family supports and ignore the rest
    (e.g. AutoTVM tuners ignore ``warm_start`` and ``transfer_seed``); the
    spec was validated before a factory runs, so the BO loop knobs never
    reach an AutoTVM tuner.
    """

    benchmark: KernelBenchmark
    evaluator: Evaluator
    spec: JobSpec
    #: The spec's warm-start store records that match this benchmark (BO only).
    warm_start: Any = None
    #: The meta-surrogate seed fit from ``spec.transfer_from`` (ytopt only).
    transfer_seed: Any = None
    #: Budget cap applied to AutoTVM-XGB only (None = uncapped).
    xgb_trial_cap: "int | None" = None


@dataclass(frozen=True)
class TunerSpec:
    """A registered tuner family: display name + factory + metadata.

    ``family`` partitions capability: ``"bo"`` tuners (BayesianAutotuner
    front-end) support warm start and surrogate pruning; ``"autotvm"`` tuners
    run AutoTVM's batch semantics (waves of 8) and accept no BO loop knobs.
    ``supports_transfer`` additionally gates the meta-surrogate transfer
    stack (RF surrogate only, today).
    """

    name: str
    family: str  # "bo" | "autotvm"
    description: str
    factory: Callable[[TunerContext], "BayesianAutotuner | AMBS"]
    supports_transfer: bool = False
