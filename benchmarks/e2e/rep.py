"""One rep of one e2e workload, in a fresh process (started by ``run.py``).

    python benchmarks/e2e/rep.py --workload NAME --seed N --evals N \\
        --workdir DIR --out PATH [--trace] [--spans] [--setup-only]
    python benchmarks/e2e/rep.py --warm

``run.py`` points REPRO_NATIVE_DIR and TMPDIR into a fresh directory per rep,
so no rep reuses another rep's ``.so`` files and nothing is written outside
the checkout. The rep writes one JSON document to ``--out``.
"""

import time

T0 = time.perf_counter()  # setup_s counts from here, before `import repro`

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import layer_trace  # noqa: E402
from workloads import REFERENCES, WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]

#: The winner check draws its inputs from this offset plus the seed, so they
#: differ from the inputs every trial was measured with.
CHECK_SEED_OFFSET = 1000


def setup_native(wl, seed: int, evals: int, wrap_builder):
    """BayesianAutotuner + LocalEvaluator on the native tier, serial loop
    settings as ``repro tune`` builds them (batch 1, one job)."""
    from repro.core.framework import AutotuneConfig, BayesianAutotuner
    from repro.kernels.registry import get_benchmark
    from repro.runtime.measure import LocalEvaluator
    from repro.telemetry.context import Telemetry, set_telemetry
    from repro.telemetry.sinks import RecordingSink
    from repro.tir.codegen_c import find_toolchain

    bench = get_benchmark(wl.kernel, wl.size)
    builder = wrap_builder(bench.schedule_builder)
    events = RecordingSink()
    set_telemetry(Telemetry(sinks=[events]))
    config = AutotuneConfig(
        max_evals=evals, seed=seed, batch_size=1, jobs=1,
        pipeline=wl.pipeline, compile_jobs=wl.compile_jobs,
    )
    tuner = BayesianAutotuner(
        bench.config_space(seed=seed),
        LocalEvaluator(builder, backend="native"),
        config=config,
        name=bench.name,
    )
    find_toolchain()
    return tuner.run, builder, events, tuner.optimizer


def setup_swing(wl, seed: int, evals: int, wrap_builder, workdir: Path):
    """TuningSession with a run store and a JSONL trace, Swing-priced."""
    from repro.service.jobs import JobSpec
    from repro.service.session import TuningSession
    from repro.telemetry.sinks import RecordingSink

    events = RecordingSink()
    session = TuningSession(
        JobSpec(kernel=wl.kernel, size=wl.size, max_evals=evals, seed=seed),
        store_path=str(workdir / "store.sqlite"),
        trace_path=str(workdir / "trace.jsonl"),
        extra_sinks=[events],
    )
    builder = wrap_builder(session.benchmark.schedule_builder)
    return session.run, builder, events, session.optimizer


def check_winner(wl, builder, config, seed: int) -> dict:
    """Rebuild the winner on the native tier with fresh seeded inputs and
    compare its output with the NumPy reference in ``workloads``."""
    from repro.runtime.measure import LocalEvaluator

    evaluator = LocalEvaluator(
        builder,
        backend="native",
        repeat=wl.check_repeat,
        seed=CHECK_SEED_OFFSET + seed,
        validate=REFERENCES[wl.kernel],
    )
    result = evaluator.evaluate(config)
    return {
        "backend": result.backend,
        "error": result.error,
        "best_kernel_us": min(result.costs) * 1e6 if result.costs else None,
    }


def search_stats(events, start: float) -> dict:
    """Trial counts, evals/seconds to within 5% of the final best (the
    definition ``repro report --to-best`` uses), and the intervals between
    consecutive trials. ``start`` is the run's start on the clock the event
    bus stamps events with (``time.time``)."""
    from repro.telemetry.report import evals_to_within

    trials = [e for e in events.events if e.kind == "trial_measured"]
    times = [e.ts for e in trials]
    inf = float("inf")
    trajectory = [(e.ts, e.runtime if e.ok and not e.low_fidelity else inf) for e in trials]
    best = min((rt for _, rt in trajectory), default=inf)
    reach = evals_to_within(trajectory, best) if best < inf else None
    return {
        "trials": len(trials),
        "failed": sum(1 for e in trials if not e.ok),
        "evals_to_5pct": reach,
        "time_to_5pct_s": None if reach is None else times[reach - 1] - start,
        "intervals_ms": [(b - a) * 1e3 for a, b in zip([start] + times, times)],
    }


def layer_metrics(layers: dict, rep: dict, optimizer, n_events: int) -> dict:
    """The per-layer metrics of ``workloads.PER_LAYER`` one rep gives; run.py
    adds the pooled trial percentiles and the trace overhead."""

    def get(name: str, key: str = "total_s"):
        return layers.get(name, {}).get(key, 0)

    ask_ms = [d * 1e3 for d in layers.get("ytopt.ask", {}).get("durations", [])]
    overhead = rep["overhead"]
    search = rep["search"]
    return {
        "kernels.schedule_build_s": get("kernels.schedule_build"),
        "kernels.schedule_build_calls": get("kernels.schedule_build", "calls"),
        "tir.lower_s": get("tir.lower"),
        "tir.simplify_s": get("tir.simplify"),
        "tir.emit_c_s": get("tir.emit_c"),
        "tir.emit_c_bytes": get("tir.emit_c", "bytes"),
        "tir.cc_s": get("tir.cc"),
        "tir.cc_calls": get("tir.cc", "calls"),
        "tir.so_built": rep["so_built"],
        "tir.native_load_s": get("tir.native_build", "self_s"),
        "tir.native_build_calls": get("tir.native_build", "calls"),
        "runtime.kernel_s": get("runtime.kernel"),
        "runtime.kernel_calls": get("runtime.kernel", "calls"),
        "runtime.evaluate_s": get("runtime.evaluate"),
        "runtime.precompile_s": get("runtime.precompile"),
        "runtime.precompile_calls": get("runtime.precompile", "calls"),
        "ytopt.ask_s": get("ytopt.ask"),
        "ytopt.ask_calls": get("ytopt.ask", "calls"),
        "ytopt.ask_p50_ms": statistics.median(ask_ms) if ask_ms else 0.0,
        "ytopt.ask_max_ms": max(ask_ms, default=0.0),
        "ytopt.tell_s": get("ytopt.tell"),
        "ytopt.speculate_s": get("ytopt.speculate"),
        "ytopt.fit_s": get("ytopt.fit"),
        "ytopt.fit_calls": get("ytopt.fit", "calls"),
        "ytopt.predict_s": get("ytopt.predict"),
        "pipeline.spec_hit_rate": overhead.get("spec_hit_rate", 0.0),
        "pipeline.pool_busy_s": overhead.get("pool_busy_seconds", 0.0),
        "pipeline.pool_occupancy_peak": overhead.get("pool_occupancy_peak", 0.0),
        "pipeline.refits": optimizer.n_refits,
        "pipeline.refits_skipped": optimizer.n_refits_skipped,
        "loop.search_s": overhead.get("search_seconds", 0.0),
        "loop.compile_s": overhead.get("compile_seconds", 0.0),
        "loop.measure_s": overhead.get("measure_seconds", 0.0),
        "swing.evaluate_s": get("swing.evaluate"),
        "service.session_init_s": get("service.session_init"),
        "telemetry.store_sink_s": get("telemetry.store_sink"),
        "telemetry.jsonl_sink_s": get("telemetry.jsonl_sink"),
        "telemetry.events": n_events,
        "search.evals_to_5pct": search["evals_to_5pct"],
        "search.time_to_5pct_s": search["time_to_5pct_s"],
        "search.best_kernel_us": rep["check"]["best_kernel_us"],
    }


def run(args) -> dict:
    wl = WORKLOADS[args.workload]
    recorder = None
    wrap_builder = lambda fn: fn  # noqa: E731
    if args.trace:
        recorder = layer_trace.Recorder()
        layer_trace.install(recorder)
        wrap_builder = lambda fn: recorder.wrap("kernels.schedule_build", fn)  # noqa: E731
    if wl.kind == "native":
        tune, builder, events, optimizer = setup_native(wl, args.seed, args.evals, wrap_builder)
    else:
        tune, builder, events, optimizer = setup_swing(
            wl, args.seed, args.evals, wrap_builder, Path(args.workdir)
        )
    rep = {
        "workload": wl.name,
        "seed": args.seed,
        "evals": args.evals,
        "traced": bool(args.trace),
        "setup_s": time.perf_counter() - T0,
    }
    if args.setup_only:
        return rep

    t_run, start = time.perf_counter(), time.time()
    outcome = tune()
    rep["wall_s"] = time.perf_counter() - t_run
    # ru_maxrss is in KiB on Linux. Read before the winner check, whose
    # buffers are not part of the tuning run.
    rep["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rep["search"] = search_stats(events, start)
    rep["best_config"] = {k: int(v) for k, v in outcome.best_config.items()}
    rep["best_runtime_s"] = outcome.best_runtime
    rep["overhead"] = {
        k: v for k, v in (outcome.overhead or {}).items() if isinstance(v, (int, float))
    }
    rep["check"] = check_winner(wl, builder, outcome.best_config, args.seed)
    rep["so_built"] = sum(
        1 for p in Path(os.environ["REPRO_NATIVE_DIR"]).glob("*.so") if ".tmp" not in p.name
    )
    from repro.tir.codegen_c import find_toolchain
    import numpy

    rep["versions"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cc": find_toolchain().version,
    }
    if recorder is not None:
        layers, threads = layer_trace.rollup(recorder.spans)
        rep["per_layer"] = layer_metrics(layers, rep, optimizer, len(events.events))
        rep["layers"] = {
            name: {k: v for k, v in entry.items() if k != "durations"}
            for name, entry in layers.items()
        }
        rep["threads"] = {
            recorder.thread_names[tid]: entry for tid, entry in threads.items()
        }
        if args.spans:
            rep["chrome"] = layer_trace.chrome_events(
                recorder.spans, recorder.thread_names, T0
            )
    return rep


def warm() -> None:
    """Import what the workloads import and build one trivial kernel on the
    native tier, so the timed reps find bytecode and the compiler in the OS
    file cache."""
    import repro.service.session  # noqa: F401
    import repro.te as te
    from repro.runtime.module import build

    a = te.placeholder((4,), name="A", dtype="float64")
    b = te.compute((4,), lambda i: a[i] + 1.0, name="B")
    build(te.create_schedule(b.op), [a, b], backend="native")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--evals", type=int)
    parser.add_argument("--workdir")
    parser.add_argument("--out")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--warm", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    if args.warm:
        warm()
        return 0
    rep = run(args)
    with open(args.out, "w") as fh:
        json.dump(rep, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
