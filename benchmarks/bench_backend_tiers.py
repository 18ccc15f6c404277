"""Perf-regression harness for the tiered execution backend and BO hot path.

Not a pytest-benchmark file: run it directly. It produces two JSON documents
(see ``scripts/bench_to_json.py`` for the CI entry point that writes
``BENCH_compiler.json`` / ``BENCH_search.json``):

* **compiler** — for a fixed set of kernel instances, the wall time of one
  kernel execution under each backend tier (``native`` / ``tensor`` /
  ``codegen`` / ``interp``) plus the derived speedups, and the *coverage* of
  the tensorized and native tiers over the paper's registered benchmarks
  (the fraction of builds whose ladder lands on the pinned tier instead of
  falling back). For lu-96 and 3mm-mini it also times the native compile
  itself (the ``tir.cc`` layer): ``native_compile_ms`` is the median
  ``compile_source`` time over distinct configurations, and
  ``compile_vs_reference`` the median over those configurations of each
  compile's time divided by the time to build the same translation unit
  with a fixed reference recipe (the three libc headers prepended,
  ``-O2 -fPIC -shared … -lm``), right after it.
* **search** — the BO hot path: the optimizer's index draw vs the
  sequential sampling API, and two 100-step ask/tell loops on a large
  synthetic space with no kernel execution. The *overhead* loop swaps in
  ``DummySurrogate`` so only the optimizer's own sampling/dedup/acquisition
  code is measured (the quantity the vectorized ``_suggest`` targets); the
  *rf* loop runs the production Random-Forest surrogate and includes model
  fitting.

Presets: ``quick`` keeps every instance small enough that the interpreter
tier finishes in seconds (this is what CI runs); ``full`` adds the paper's
``large`` instances, where the interpreter is skipped and the tensor tier is
compared against vectorized-python codegen only.

CI gating compares *speedup ratios*, not absolute seconds — ratios transfer
across machines, absolute times do not.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import uuid
from collections.abc import Mapping

import numpy as np

from repro.kernels import problem_size
from repro.kernels.cholesky import cholesky_trailing_update_tuned
from repro.kernels.extra import gemm_tuned
from repro.kernels.lu import lu_trailing_update_tuned
from repro.kernels.registry import get_benchmark, list_benchmarks
from repro.kernels.threemm import threemm_tuned
from repro.runtime.module import BACKEND_TIERS, build_from_primfunc
from repro.tir import lower, simplify_func
from repro.tir.codegen_c import (
    NativeToolchainError,
    codegen_c,
    compile_source,
    find_toolchain,
)


def _best_time(fn, repeats: int) -> float:
    # Fast calls (native runs these instances in microseconds, tensor in
    # ~milliseconds) are batched so each sample spans >= ~10ms of work;
    # single-call samples would be dominated by timer/dispatch noise. The
    # *minimum* over repeats is reported — the least-noise estimator of the
    # true cost, and the one that keeps the gated ratios stable when the
    # machine is loaded (scheduler interference only ever adds time).
    t0 = time.perf_counter()
    fn()
    once = time.perf_counter() - t0
    inner = max(1, min(500, int(0.01 / once))) if once > 0 else 500
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        times.append((time.perf_counter() - t0) / inner)
    return float(np.min(times))


def _buffers(args, seed: int = 0) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [
        rng.standard_normal(t.shape).astype(t.dtype)
        if i < len(args) - 1
        else np.zeros(t.shape, dtype=t.dtype)
        for i, t in enumerate(args)
    ]


def bench_case(name: str, sched, args, tiers, repeats: int) -> dict:
    """Time one kernel instance under each requested tier (pinned ladder)."""
    func = simplify_func(lower(sched, args))
    out: dict = {"name": name, "tiers": {}}
    for tier in tiers:
        mod = build_from_primfunc(func, backend=tier)
        bufs = _buffers(args)
        mod(*bufs)  # warm-up (first call pays any lazy allocation)
        out["tiers"][tier] = {
            "selected": mod.backend,
            "seconds": _best_time(lambda m=mod, b=bufs: m(*b), repeats),
        }
    t = out["tiers"]
    if "tensor" in t and "interp" in t:
        out["speedup_tensor_vs_interp"] = t["interp"]["seconds"] / t["tensor"]["seconds"]
    if "tensor" in t and "codegen" in t:
        out["speedup_tensor_vs_codegen"] = (
            t["codegen"]["seconds"] / t["tensor"]["seconds"]
        )
    if "native" in t and "tensor" in t and t["native"]["selected"] == "native":
        out["speedup_native_vs_tensor"] = (
            t["tensor"]["seconds"] / t["native"]["seconds"]
        )
    return out


def _quick_cases() -> list[tuple[str, tuple, Mapping[str, int]]]:
    mini = problem_size("3mm", "mini")
    return [
        ("gemm-48", gemm_tuned(48, 48, 48, {"P0": 8, "P1": 8}), {}),
        ("lu-96", lu_trailing_update_tuned(96, 96, 32, {"P0": 8, "P1": 8}), {}),
        (
            "cholesky-96",
            cholesky_trailing_update_tuned(96, 32, {"P0": 8, "P1": 8}),
            {},
        ),
        ("3mm-mini", threemm_tuned(mini, {p: 4 for p in
                                          ("P0", "P1", "P2", "P3", "P4", "P5")}), {}),
    ]


def _full_cases() -> list[tuple[str, tuple, Mapping[str, int]]]:
    n = problem_size("lu", "large").n
    return [
        (
            "lu-large",
            lu_trailing_update_tuned(n, n, 64, {"P0": 100, "P1": 100}),
            {},
        ),
        (
            "cholesky-large",
            cholesky_trailing_update_tuned(n, 64, {"P0": 100, "P1": 100}),
            {},
        ),
    ]


#: The reference recipe ``compile_vs_reference`` divides by: the headers and
#: the libc/libm link every native build paid before the emitter went
#: freestanding (still valid C: the typedefs and prototypes match the headers).
REFERENCE_HEADERS = "#include <stdint.h>\n#include <stdlib.h>\n#include <math.h>\n"
REFERENCE_FLAGS = ("-O2", "-fPIC", "-shared")


def _compile_cases() -> dict[str, tuple]:
    """Case name -> (builder, distinct configurations) for the compile timing."""
    mini = problem_size("3mm", "mini")
    lu_tiles = ((8, 8), (4, 16), (16, 4), (12, 24), (32, 6), (6, 32), (24, 12))
    mm_tiles = ((4, 4, 4), (2, 5, 3), (5, 2, 6), (3, 6, 2), (6, 3, 5), (2, 2, 8), (8, 4, 2))
    return {
        "lu-96": (
            lambda cfg: lu_trailing_update_tuned(96, 96, 32, cfg),
            [{"P0": a, "P1": b} for a, b in lu_tiles],
        ),
        "3mm-mini": (
            lambda cfg: threemm_tuned(mini, cfg),
            [dict(zip(("P0", "P1", "P2", "P3", "P4", "P5"), t + t[::-1])) for t in mm_tiles],
        ),
    }


def compile_timing(make, configs) -> dict:
    """Median native compile time over ``configs``, and the median ratio of
    each compile to the reference recipe's build of the same unit right
    after it (pairing cancels the host's slow drifts).

    Every source gets a unique trailing comment, so no compile is served by
    the content-addressed ``.so`` store, even when the harness runs twice in
    one process.
    """
    toolchain = find_toolchain()
    lean, ratios = [], []
    with tempfile.TemporaryDirectory() as tmp:
        c_path, so_path = os.path.join(tmp, "ref.c"), os.path.join(tmp, "ref.so")
        ref_cmd = [toolchain.path, *REFERENCE_FLAGS, "-o", so_path, c_path, "-lm"]
        for index, cfg in enumerate([configs[0], *configs]):
            sched, args = make(cfg)
            source = codegen_c(simplify_func(lower(sched, args)))
            source += f"/* {uuid.uuid4().hex} */\n"
            with open(c_path, "w") as fh:
                fh.write(REFERENCE_HEADERS + source)
            t0 = time.perf_counter()
            compile_source(source, toolchain)
            t1 = time.perf_counter()
            subprocess.run(ref_cmd, check=True, capture_output=True)
            t2 = time.perf_counter()
            if index:  # the first pass only warms the compiler's files
                lean.append(t1 - t0)
                ratios.append((t1 - t0) / (t2 - t1))
    return {
        "native_compile_ms": 1e3 * statistics.median(lean),
        "compile_vs_reference": statistics.median(ratios),
    }


def default_config(bench) -> dict[str, int]:
    """Deterministic mid-point configuration of a registered benchmark."""
    return {p: bench.candidates[p][len(bench.candidates[p]) // 2]
            for p in bench.params}


def tier_coverage() -> dict:
    """Default-ladder tier per registered paper benchmark (build only, no run).

    ``native_fraction`` is measured separately under an explicit ``native``
    pin (the default ladder starts at ``tensor``): the fraction of registered
    benchmarks the compiled-C tier covers outright without falling back.
    """
    selected: dict[str, str] = {}
    native_hits = 0
    total = 0
    for kernel, size_name in list_benchmarks():
        bench = get_benchmark(kernel, size_name)
        sched, args = bench.schedule_builder(default_config(bench))
        func = simplify_func(lower(sched, args))
        mod = build_from_primfunc(func)
        selected[f"{kernel}/{size_name}"] = mod.backend
        total += 1
        if build_from_primfunc(func, backend="native").backend == "native":
            native_hits += 1
    hits = sum(1 for tier in selected.values() if tier != "interp")
    return {
        "selected": selected,
        "coverage": hits / len(selected),
        "tensor_fraction": sum(
            1 for tier in selected.values() if tier == "tensor"
        ) / len(selected),
        "native_fraction": native_hits / total,
    }


def compiler_bench(preset: str, repeats: int) -> dict:
    cases = []
    for name, (sched, args), _ in _quick_cases():
        cases.append(bench_case(name, sched, args, BACKEND_TIERS, repeats))
    if preset == "full":
        for name, (sched, args), _ in _full_cases():
            # The interpreter needs minutes on the large instances; the
            # native/tensor/codegen ratios are the quantities that track the
            # executable tiers' health there.
            cases.append(
                bench_case(name, sched, args, ("native", "tensor", "codegen"), repeats)
            )
    try:
        find_toolchain()
    except NativeToolchainError:
        pass  # no compile timing without a compiler; --check reports it
    else:
        compile_cases = _compile_cases()
        for case in cases:
            if case["name"] in compile_cases:
                case.update(compile_timing(*compile_cases[case["name"]]))
    return {"preset": preset, "repeats": repeats,
            "cases": cases, "coverage": tier_coverage()}


def _synthetic_space(seed: int = 0):
    from repro.configspace import ConfigurationSpace, OrdinalHyperparameter

    space = ConfigurationSpace(seed=seed)
    for i in range(6):
        space.add_hyperparameter(
            OrdinalHyperparameter(f"P{i}", tuple(range(2, 66, 2)))
        )
    return space


def _ask_loop_seconds(surrogate_factory, evals: int, trials: int) -> float:
    from repro.ytopt.optimizer import Optimizer

    best = None
    for _ in range(trials):
        opt = Optimizer(
            _synthetic_space(seed=0),
            surrogate=surrogate_factory(),
            seed=0,
            n_initial_points=10,
        )
        t0 = time.perf_counter()
        for _ in range(evals):
            config = opt.ask()
            cost = 1.0 + sum(v * 0.01 for v in config.get_dictionary().values())
            opt.tell(config, cost)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return float(best)


def search_bench(preset: str) -> dict:
    from repro.ml import native
    from repro.ytopt.surrogate import DummySurrogate, RandomForestSurrogate

    n = 2000 if preset == "quick" else 5000
    # The optimizer's index draw (index rows plus their encodings) vs
    # sequential sampling — same RNG stream, so the draw sequence is
    # identical; the delta is per-configuration overhead.
    space = _synthetic_space(seed=0)
    t0 = time.perf_counter()
    view = space.index_view()
    view.encode(view.sample(n))
    batch_s = time.perf_counter() - t0
    space = _synthetic_space(seed=0)
    t0 = time.perf_counter()
    for _ in range(n):
        c = space.sample_configuration()
        c.get_array()  # the hot path needs encodings too
    seq_s = time.perf_counter() - t0

    evals, trials = 100, (2 if preset == "quick" else 3)
    # Headline metric: ask-loop *overhead* — DummySurrogate replaces the
    # model, so only sampling, dedup, neighbor generation, and acquisition
    # scoring are measured (the code the vectorized hot path targets).
    overhead_s = _ask_loop_seconds(DummySurrogate, evals, trials)
    # Informational: the production loop with the Random-Forest surrogate
    # (includes surrogate fit/predict). The compiled tree grower is built
    # first: its one-time compile is not a per-eval cost, and leaving it in
    # the first trial would leave the quick preset one clean trial.
    native.library()
    rf_s = _ask_loop_seconds(lambda: RandomForestSurrogate(seed=0), evals, trials)

    return {
        "preset": preset,
        "sample_n": n,
        "batch_sampling_seconds": batch_s,
        "sequential_sampling_seconds": seq_s,
        "batch_sampling_speedup": seq_s / batch_s,
        "ask_loop_evals": evals,
        "ask_overhead_seconds": overhead_s,
        "ask_overhead_ms_per_eval": 1000.0 * overhead_s / evals,
        "ask_loop_rf_seconds": rf_s,
        "ask_loop_rf_ms_per_eval": 1000.0 * rf_s / evals,
    }


def run(preset: str, repeats: int) -> dict:
    return {"compiler": compiler_bench(preset, repeats), "search": search_bench(preset)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", choices=("quick", "full"), default="quick")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats per tier (the minimum is reported)")
    parser.add_argument("--json", type=str, default=None,
                        help="write the combined result document to this path")
    opts = parser.parse_args(argv)
    result = run(opts.preset, opts.repeats)
    text = json.dumps(result, indent=2, sort_keys=True)
    if opts.json:
        with open(opts.json, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
