"""Pipelined-vs-serial tuning-loop harness; produces ``BENCH_pipeline.json``.

Not a pytest-benchmark file: run it directly. Three arms:

* **native_dispatch** — the headline A/B and the paper's measurement regime:
  a 100-evaluation native-tier run of the LU trailing update (n=96) where
  every trial pays a ``dispatch_latency`` job round trip, exactly like the
  Swing cluster the paper tunes against. The serial loop runs at
  ``compile_jobs=1``, so it builds nothing ahead (gated: it reports no
  build-pool counters), and pays ask + compile + dispatch + run end to end
  per trial; the pipelined loop hides compile and the surrogate ask behind
  the dispatch window (compile-ahead speculation + the geometric refit
  schedule), so its wall clock approaches the irreducible measurement time.
  This arm carries the gate: pipelined must be >= 2x serial under the full
  preset (>= 1.5x under quick, which CI runs).
* **native_real** — the same kernel with zero dispatch latency,
  back-to-back µs kernel calls. Informational only: on a single-core host
  compile work cannot overlap anything, so the (honest) speedup here is
  whatever the refit schedule and compile-ahead dedup save, not 2x.
  ``host_cpus`` is recorded next to it.
* **determinism** — two runs of one seed of the Swing-simulated
  ``lu/large`` experiment, at ``refit_every=1`` and at the geometric
  ``refit_every=0``, must produce identical evaluation-record sequences —
  configuration, runtime, compile time, elapsed process time, fidelity, and
  error, row for row. Gated. (A Swing loop never builds ahead, so it has no
  pipelined twin; that building ahead commits the same rows is checked on
  a real-clock evaluator in ``tests/pipeline/test_engine.py``.)

Only dimensionless quantities are gated (speedup ratio, record identity,
speculation hit rate); absolute seconds are reported but never compared —
they do not transfer across machines.

Run:  python benchmarks/bench_pipeline.py [--preset quick|full]
                                          [--json PATH] [--check]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.configspace import ConfigurationSpace, OrdinalHyperparameter
from repro.kernels.lu import lu_trailing_update_tuned
from repro.kernels.registry import get_benchmark
from repro.runtime.measure import LocalEvaluator
from repro.swing import SwingEvaluator
from repro.tir.codegen_c import reset_native_runtime
from repro.ytopt.optimizer import Optimizer, RefitSchedule, refit_policy
from repro.ytopt.problem import TuningProblem
from repro.ytopt.search import AMBS

LU_N = 96
#: Emulated per-trial job-dispatch round trip (seconds) for the headline arm
#: — the cost structure of the paper's cluster, scaled down so the full
#: preset finishes in under a minute.
DISPATCH_LATENCY = 0.07

#: Pipelined speedup the gate demands per preset. The full preset must meet
#: the issue's 2x bar; quick (what CI runs) uses a lower floor because fewer
#: evaluations amortize the ungated warm-up wave less.
SPEEDUP_FLOOR = {"quick": 1.5, "full": 2.0}

#: Overhead keys only a run with a build pool reports.
POOL_COUNTERS = frozenset(
    {"compile_jobs", "spec_hit_rate", "pool_busy_seconds", "pool_occupancy_peak"}
)


def _divisors(n: int) -> tuple[int, ...]:
    return tuple(d for d in range(1, n + 1) if n % d == 0)


def _lu_space(seed: int) -> ConfigurationSpace:
    space = ConfigurationSpace(seed=seed)
    for name in ("P0", "P1"):
        space.add_hyperparameter(OrdinalHyperparameter(name, _divisors(LU_N)))
    return space


def _lu_builder(params):
    return lu_trailing_update_tuned(LU_N, LU_N, 32, params)


def _overhead(result) -> dict:
    return dict(result.overhead or {})


def _run_native(
    evals: int,
    seed: int,
    latency: float,
    pipelined: bool,
) -> dict:
    """One native-tier lu-96 arm; fresh caches so no arm warms another.

    The pipelined arm refits on the geometric schedule with ``dense_until``
    below the warm-up design size: the schedule goes geometric as soon as the
    model phase starts, which is also what lets compile-ahead speculate
    across refit-free waves; it runs on the host's default compile jobs. The
    serial arm refits on every observation and, at one compile job, builds
    nothing ahead."""
    reset_native_runtime()
    evaluator = LocalEvaluator(
        _lu_builder, backend="native", dispatch_latency=latency
    )
    space = _lu_space(seed)
    problem = TuningProblem(space, evaluator, name=f"lu-{LU_N}")
    schedule = RefitSchedule(dense_until=8) if pipelined else None
    search = AMBS(
        problem,
        Optimizer(space, seed=seed, refit_schedule=schedule),
        max_evals=evals,
        compile_jobs=None if pipelined else 1,
    )
    t0 = time.perf_counter()
    result = search.run()
    wall = time.perf_counter() - t0
    out = _overhead(result)
    out["wall_measured"] = wall
    out["n_evals"] = float(result.n_evals)
    return out


def _record_signature(result) -> list:
    records = getattr(result.database, "_records", [])
    return [
        (r.config, r.runtime, r.compile_time, r.elapsed, r.fidelity, r.error)
        for r in records
    ]


def _run_swing(evals: int, seed: int, refit_every: int):
    bench = get_benchmark("lu", "large")
    evaluator = SwingEvaluator(bench.profile, number=1)
    space = bench.config_space(seed=seed)
    problem = TuningProblem(space, evaluator, name=bench.name)
    interval, schedule = refit_policy(refit_every)
    optimizer = Optimizer(
        space, seed=seed, refit_interval=interval, refit_schedule=schedule
    )
    search = AMBS(problem, optimizer, max_evals=evals)
    return _record_signature(search.run())


def native_dispatch_arm(evals: int, seed: int) -> dict:
    serial = _run_native(evals, seed, DISPATCH_LATENCY, pipelined=False)
    pipelined = _run_native(evals, seed, DISPATCH_LATENCY, pipelined=True)
    return {
        "kernel": f"lu-{LU_N}",
        "evals": evals,
        "dispatch_latency": DISPATCH_LATENCY,
        "serial": serial,
        "pipelined": pipelined,
        "speedup": serial["wall_seconds"] / pipelined["wall_seconds"],
        "spec_hit_rate": pipelined.get("spec_hit_rate", 0.0),
    }


def native_real_arm(evals: int, seed: int) -> dict:
    serial = _run_native(evals, seed, 0.0, pipelined=False)
    pipelined = _run_native(evals, seed, 0.0, pipelined=True)
    return {
        "kernel": f"lu-{LU_N}",
        "evals": evals,
        "host_cpus": os.cpu_count() or 1,
        "serial": serial,
        "pipelined": pipelined,
        "speedup": serial["wall_seconds"] / pipelined["wall_seconds"],
    }


def determinism_arm(evals: int, seed: int) -> dict:
    out: dict = {"kernel": "lu/large", "evals": evals, "seed": seed}
    for refit_every in (1, 0):
        first = _run_swing(evals, seed, refit_every)
        second = _run_swing(evals, seed, refit_every)
        out[f"identical_refit_every_{refit_every}"] = first == second
    return out


def run(preset: str) -> dict:
    sizes = {
        # evals per arm: (dispatch, real, determinism)
        "quick": (48, 24, 24),
        "full": (100, 60, 40),
    }[preset]
    print(f"[bench_pipeline] preset={preset} "
          f"(dispatch={sizes[0]} real={sizes[1]} determinism={sizes[2]} evals)",
          flush=True)
    dispatch = native_dispatch_arm(sizes[0], seed=0)
    print(f"[bench_pipeline] native_dispatch: "
          f"serial {dispatch['serial']['wall_seconds']:.2f}s, "
          f"pipelined {dispatch['pipelined']['wall_seconds']:.2f}s "
          f"-> {dispatch['speedup']:.2f}x "
          f"(spec hit rate {dispatch['spec_hit_rate']:.0%})", flush=True)
    real = native_real_arm(sizes[1], seed=0)
    print(f"[bench_pipeline] native_real: "
          f"serial {real['serial']['wall_seconds']:.2f}s, "
          f"pipelined {real['pipelined']['wall_seconds']:.2f}s "
          f"-> {real['speedup']:.2f}x on {real['host_cpus']} cpu(s)", flush=True)
    det = determinism_arm(sizes[2], seed=0)
    print(f"[bench_pipeline] determinism: "
          f"refit_every=1 identical={det['identical_refit_every_1']}, "
          f"refit_every=0 identical={det['identical_refit_every_0']}", flush=True)
    return {
        "preset": preset,
        "speedup_floor": SPEEDUP_FLOOR[preset],
        "arms": {
            "native_dispatch": dispatch,
            "native_real": real,
            "determinism": det,
        },
    }


def check(doc: dict) -> list[str]:
    """Gate one fresh run; returns the list of failures (empty = pass)."""
    failures = []
    floor = doc["speedup_floor"]
    dispatch = doc["arms"]["native_dispatch"]
    if dispatch["speedup"] < floor:
        failures.append(
            f"native_dispatch speedup {dispatch['speedup']:.2f}x "
            f"below the {floor:.1f}x floor"
        )
    if dispatch["spec_hit_rate"] <= 0.0:
        failures.append("compile-ahead speculation never hit")
    for name in ("native_dispatch", "native_real"):
        counters = POOL_COUNTERS & set(doc["arms"][name]["serial"])
        if counters:
            failures.append(
                f"{name} serial arm built ahead (reports {', '.join(sorted(counters))})"
            )
    det = doc["arms"]["determinism"]
    for key in ("identical_refit_every_1", "identical_refit_every_0"):
        if not det[key]:
            failures.append(f"determinism arm {key} is False")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", choices=("quick", "full"), default="quick")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the result document here")
    parser.add_argument("--check", action="store_true",
                        help="gate the fresh run (speedup floor, determinism, "
                        "speculation hit); exit non-zero on failure")
    args = parser.parse_args(argv)
    doc = run(args.preset)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"[bench_pipeline] wrote {args.json}", flush=True)
    if args.check:
        failures = check(doc)
        for failure in failures:
            print(f"[bench_pipeline] GATE FAILURE: {failure}", file=sys.stderr)
        if failures:
            return 1
        print("[bench_pipeline] all gates passed", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
