"""Ablation studies for the design choices DESIGN.md calls out.

Not part of the paper's evaluation; they quantify *why* the proposed framework
behaves as it does:

* :func:`kappa_sweep` — LCB exploration weight vs. search quality;
* :func:`surrogate_comparison` — Random-Forest vs. boosted-tree vs. no
  surrogate (BO degenerates to random search);
* :func:`initial_points_sweep` — size of the initial random design;
* :func:`measure_option_ablation` — AutoTVM batch measurement semantics
  (``number``, parallel builds) vs. process time, the mechanism behind the
  paper's large-vs-extralarge process-time observation.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.autotvm import RandomTuner
from repro.bench.tuners import autotvm_search
from repro.common.timing import VirtualClock
from repro.core.framework import AutotuneConfig, BayesianAutotuner
from repro.kernels.registry import get_benchmark
from repro.swing import SwingEvaluator
from repro.ytopt import TuningProblem
from repro.ytopt.surrogate import DummySurrogate, GBTSurrogate, RandomForestSurrogate


@dataclass
class AblationRow:
    """One setting of an ablation sweep."""

    setting: str
    best_runtime: float
    total_time: float
    n_evals: int


def _run_bo(
    kernel: str,
    size_name: str,
    max_evals: int,
    seed: int,
    kappa: float = 1.96,
    n_initial_points: int = 10,
    surrogate_name: str = "rf",
) -> AblationRow:
    benchmark = get_benchmark(kernel, size_name)
    evaluator = SwingEvaluator(benchmark.profile, clock=VirtualClock(), number=1)
    surrogate = {
        "rf": lambda: RandomForestSurrogate(seed=seed),
        "gbt": lambda: GBTSurrogate(seed=seed),
        "none": DummySurrogate,
    }[surrogate_name]()
    bo = BayesianAutotuner(
        benchmark.config_space(seed=seed),
        evaluator,
        config=AutotuneConfig(
            max_evals=max_evals,
            seed=seed,
            kappa=kappa,
            n_initial_points=n_initial_points,
        ),
        surrogate=surrogate,
        name=f"{benchmark.name}-ablation",
    )
    res = bo.run()
    return AblationRow(
        setting="",
        best_runtime=res.best_runtime,
        total_time=res.total_elapsed,
        n_evals=res.n_evals,
    )


def kappa_sweep(
    kernel: str = "lu",
    size_name: str = "large",
    kappas: Sequence[float] = (0.0, 0.5, 1.96, 5.0),
    max_evals: int = 50,
    seed: int = 0,
) -> list[AblationRow]:
    out = []
    for kappa in kappas:
        row = _run_bo(kernel, size_name, max_evals, seed, kappa=kappa)
        row.setting = f"kappa={kappa}"
        out.append(row)
    return out


def surrogate_comparison(
    kernel: str = "lu",
    size_name: str = "large",
    max_evals: int = 50,
    seed: int = 0,
) -> list[AblationRow]:
    out = []
    for name in ("rf", "gbt", "none"):
        row = _run_bo(kernel, size_name, max_evals, seed, surrogate_name=name)
        row.setting = f"surrogate={name}"
        out.append(row)
    return out


def initial_points_sweep(
    kernel: str = "cholesky",
    size_name: str = "large",
    counts: Sequence[int] = (2, 5, 10, 25),
    max_evals: int = 50,
    seed: int = 0,
) -> list[AblationRow]:
    out = []
    for n in counts:
        row = _run_bo(kernel, size_name, max_evals, seed, n_initial_points=n)
        row.setting = f"n_initial={n}"
        out.append(row)
    return out


class _RenamingEvaluator:
    """Adapter: translate AutoScheduler's auto-generated parameter names
    (``E.y``...) to a benchmark profile's names (``P0``...) so both searches
    are priced by the *same* calibrated model."""

    def __init__(self, inner, mapping: dict[str, str]) -> None:
        self.inner = inner
        self.mapping = mapping
        self.clock = getattr(inner, "clock", None)

    def evaluate(self, params):
        renamed = {self.mapping.get(k, k): v for k, v in params.items()}
        result = self.inner.evaluate(renamed)
        result.config = dict(params)
        return result

    def elapsed(self):
        return self.inner.elapsed()


def autoscheduler_comparison(
    kernel: str = "3mm",
    size_name: str = "extralarge",
    max_evals: int = 50,
    seed: int = 0,
) -> list[AblationRow]:
    """AutoScheduler (auto-generated space) vs ytopt (predefined Table 1 space).

    The paper compares only against AutoTVM "because AutoScheduler's search
    space is not explicit"; here both run against the same calibrated model,
    so the question can actually be answered. AutoScheduler searches a larger
    space (imperfect tile sizes included), ytopt the paper's divisor space.
    """
    from repro.autoscheduler import SearchTask, TuningOptions, auto_schedule
    from repro.autoscheduler.sketch import generate_sketch
    from repro.kernels.threemm import _threemm_graph
    from repro.kernels.problem_sizes import ThreeMMSize, problem_size

    if kernel != "3mm":
        raise ValueError("autoscheduler_comparison currently supports kernel='3mm'")
    benchmark = get_benchmark(kernel, size_name)
    size = problem_size(kernel, size_name)
    assert isinstance(size, ThreeMMSize)

    # ytopt on the predefined space.
    row_bo = _run_bo(kernel, size_name, max_evals, seed)
    row_bo.setting = "ytopt (predefined space)"

    # AutoScheduler on its own derived space, priced by the same model.
    def builder():
        A, B, C, D, E, F, G = _threemm_graph(size, "float64")
        return [A, B, C, D, G]

    sketch = generate_sketch(builder()[4].op)
    mapping = dict(zip(sketch.params, benchmark.params))
    inner = SwingEvaluator(benchmark.profile, clock=VirtualClock(), number=1)
    task = SearchTask(
        builder,
        name=f"{benchmark.name}-ansor",
        evaluator=_RenamingEvaluator(inner, mapping),
    )
    result = auto_schedule(task, TuningOptions(n_trials=max_evals, seed=seed))
    rows = [
        row_bo,
        AblationRow(
            setting="AutoScheduler (auto space)",
            best_runtime=result.best_cost,
            total_time=inner.elapsed(),
            n_evals=result.n_trials,
        ),
    ]
    return rows


def measure_option_ablation(
    kernel: str = "3mm",
    size_name: str = "large",
    max_evals: int = 40,
    seed: int = 0,
) -> list[AblationRow]:
    """Same RandomTuner, different measurement semantics — isolates how much
    of the process-time gap is batching vs. search strategy."""
    out = []
    benchmark = get_benchmark(kernel, size_name)
    for number, n_parallel in ((1, 1), (3, 1), (1, 8), (3, 8)):
        evaluator = SwingEvaluator(
            benchmark.profile,
            clock=VirtualClock(),
            number=number,
            compile_parallelism=n_parallel,
        )
        problem = TuningProblem(
            benchmark.config_space(seed=seed), evaluator, name=benchmark.name
        )
        tuner = RandomTuner(problem, seed=seed)
        result = autotvm_search(tuner, max_evals).run()
        out.append(
            AblationRow(
                setting=f"number={number}, n_parallel={n_parallel}",
                best_runtime=result.best_runtime,
                total_time=result.total_elapsed,
                n_evals=result.n_evals,
            )
        )
    return out
