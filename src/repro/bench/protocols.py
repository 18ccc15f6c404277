"""The entry-point types of the benchmark/tuner registry.

A *benchmark* is everything a tuner needs to optimize one kernel at one
problem size: the parameter space ("config_space"), the code mold that turns
a configuration into a schedule ("schedule_builder"), and an engine that
prices or executes the result (an evaluator). A *tuner* is an ask/tell search
strategy bound to a benchmark + evaluator pair: a :class:`TunerSpec` factory
returns it as a :class:`~repro.bench.tuners.BoundSearch`. The shapes follow
CATBench's decomposition (benchmark = space + mold + engine, tuner =
adapter), so new kernels and new search families compose with the existing
evaluator / telemetry / multi-fidelity / transfer stack instead of being
hand-wired.

:class:`repro.kernels.registry.KernelBenchmark` structurally satisfies
:class:`Benchmark` already — the registry auto-adapts the paper's three
kernels through the exact same interface the PolyBench plugins use.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

from repro.configspace import ConfigurationSpace
from repro.runtime.measure import Evaluator
from repro.swing.profile import KernelProfile

if TYPE_CHECKING:
    from repro.bench.tuners import BoundSearch


@runtime_checkable
class Benchmark(Protocol):
    """One tunable experiment: kernel + problem size.

    Structural protocol — any object with these members registers, including
    the existing :class:`~repro.kernels.registry.KernelBenchmark`.
    """

    kernel: str
    size_name: str
    params: tuple[str, ...]
    candidates: dict[str, tuple[int, ...]]
    profile: KernelProfile
    schedule_builder: Callable[[Mapping[str, int]], tuple[Any, Sequence[Any]]]

    @property
    def name(self) -> str: ...

    def config_space(self, seed: int | None = None) -> ConfigurationSpace: ...

    def space_size(self) -> int: ...


@dataclass(frozen=True)
class TuneOutcome:
    """Neutral result of one bound tuner run (service-independent).

    :class:`repro.service.session.TuningSession` adapts this into its
    ``TunerRun`` payload; the conformance battery compares these directly.
    """

    best_config: dict[str, int]
    best_runtime: float
    n_evals: int
    total_time: float
    #: (process time at completion, measured runtime) per evaluation.
    trajectory: list[tuple[float, float]] = field(default_factory=list)
    #: Stage accounting (compile/measure/search seconds) when the engine
    #: tracked it — the ``overhead_breakdown`` column of ``repro report``.
    overhead: dict[str, float] | None = None


@dataclass
class TunerContext:
    """Everything a tuner factory may bind: the benchmark, its engine, knobs.

    Mirrors the ``repro tune`` / service ``JobSpec`` knobs so any registered
    tuner runs end-to-end with telemetry, multi-fidelity, warm start, and
    transfer untouched. Factories ignore the knobs their family does not
    support (e.g. AutoTVM tuners ignore ``transfer_seed``); the service
    rejects the BO loop knobs for AutoTVM tuners before a factory runs.
    """

    benchmark: Benchmark
    evaluator: Evaluator
    seed: int = 0
    max_evals: int = 100
    jobs: int = 1
    prune: bool = False
    prune_threshold: float = 1.25
    #: Pipelined execution (see :mod:`repro.ytopt.search`): overlap the
    #: surrogate ask, a ``compile_jobs``-wide build pool with compile-ahead,
    #: and measurement. ``refit_every`` selects the surrogate refit policy
    #: (None = loop default; 0 = geometric schedule; 1 = every observation).
    #: BO family only.
    pipeline: bool = False
    compile_jobs: "int | None" = None
    refit_every: "int | None" = None
    warm_start: Any = None
    transfer_seed: Any = None
    transfer_bias: float = 0.0
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
    factory: Callable[[TunerContext], BoundSearch]
    supports_transfer: bool = False
