"""Command-line interface.

Installed as the ``repro`` console script::

    repro info                                  # the paper's kernels and tuners
    repro list                                  # full plugin registry (7x7)
    repro table1                                # regenerate Table 1
    repro tune --kernel lu --size large --tuner ytopt --max-evals 100
    repro experiment lu-large --evals 100 --csv results/lu-large.csv
    repro ablation kappa
    repro report --db results/runs.sqlite       # paper tables from the store
    repro compare old.sqlite new.sqlite         # regression diff of two stores
    repro transfer fit --db results/runs.sqlite # fit the corpus meta-surrogate
    repro transfer inspect --db runs.sqlite     # corpus / descriptor summary
    repro serve --root results/service          # multi-tenant tuning server
    repro submit --kernel lu --size large --max-evals 100 --wait
    repro status [--job-id JOB]                 # server / job state as JSON
    repro watch JOB                             # stream a job's event lines
    repro merge --root results/service          # offline shard merge

All simulated experiments run against the calibrated Swing/A100 model and are
fully reproducible via ``--seed``. ``tune`` and ``experiment`` record
telemetry when asked: ``--db`` persists every run and evaluation to a SQLite
run store, ``--trace`` appends a JSONL event trace, ``--quiet`` silences
progress, ``--json`` makes stdout a single JSON document, and
``--no-telemetry`` disables the subsystem entirely (trajectories are identical
either way — telemetry never touches the RNG or the virtual clock).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence

from repro.common.errors import ReproError
from repro.common.tabulate import format_table
from repro.experiments import (
    ALL_TUNERS,
    EXPERIMENT_FIGURES,
    min_runtime_table,
    process_summary_table,
    run_experiment,
    run_tuner,
    trajectory_csv,
    format_tensor_size,
)
from repro.kernels import TABLE1_SPACE_SIZES, get_benchmark, list_benchmarks, space_size
from repro.telemetry import (
    ConsoleSink,
    JsonlSink,
    RunStore,
    StoreSink,
    Telemetry,
    format_metrics_summary,
    resolve_store_paths,
    telemetry_session,
)


def _cmd_info(args: argparse.Namespace) -> int:
    rows = [
        [k, s, f"{space_size(k, s):,}", len(get_benchmark(k, s).params)]
        for k, s in list_benchmarks()
    ]
    print(format_table(rows, headers=["kernel", "size", "space", "params"],
                       title="Benchmarks"))
    print()
    print("Tuners: " + ", ".join(ALL_TUNERS))
    print("Experiments: " + ", ".join(EXPERIMENT_FIGURES))
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    """Everything the pluggable registry knows (benchmarks × tuners)."""
    from repro.bench import benchmark_entries, tuner_specs

    bench_rows = []
    for entry in benchmark_entries():
        bench_rows.append([
            entry.kernel,
            " ".join(entry.sizes),
            f"{space_size(entry.kernel, 'medium'):,}",
            entry.description,
        ])
    tuner_rows = [[s.name, s.family, s.description] for s in tuner_specs()]
    if getattr(args, "json", False):
        print(json.dumps({
            "benchmarks": [
                {"kernel": e.kernel, "sizes": list(e.sizes),
                 "description": e.description, "tags": list(e.tags)}
                for e in benchmark_entries()
            ],
            "tuners": [
                {"name": s.name, "family": s.family, "description": s.description}
                for s in tuner_specs()
            ],
        }, indent=2))
        return 0
    print(format_table(
        bench_rows,
        headers=["benchmark", "sizes", "space@medium", "description"],
        title=f"Registered benchmarks ({len(bench_rows)})",
    ))
    print()
    print(format_table(
        tuner_rows,
        headers=["tuner", "family", "description"],
        title=f"Registered tuners ({len(tuner_rows)})",
    ))
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    rows = []
    ok = True
    for (kernel, size), paper in sorted(TABLE1_SPACE_SIZES.items()):
        measured = space_size(kernel, size)
        ok &= measured == paper
        rows.append([kernel, size, f"{paper:,}", f"{measured:,}",
                     "match" if measured == paper else "MISMATCH"])
    print(format_table(rows, headers=["kernel", "size", "paper", "measured", ""],
                       title="Table 1: Parameter space for each application"))
    return 0 if ok else 1


def _console_from_args(args: argparse.Namespace) -> ConsoleSink:
    if getattr(args, "json", False):
        mode = "json"
    elif getattr(args, "quiet", False):
        mode = "quiet"
    else:
        mode = "text"
    return ConsoleSink(mode=mode)


def _telemetry_from_args(
    args: argparse.Namespace, console: ConsoleSink
) -> Telemetry | None:
    """Build the session's telemetry from CLI flags (None = disabled)."""
    if getattr(args, "no_telemetry", False):
        return None
    sinks: list = [console]
    if getattr(args, "trace", None):
        sinks.append(JsonlSink(args.trace))
    if getattr(args, "db", None):
        sinks.append(StoreSink(RunStore(args.db)))
    return Telemetry(sinks=sinks)


def _run_payload(run) -> dict:
    """A JSON-safe summary of one TunerRun (the shared CLI/service contract)."""
    return run.to_payload()


def _cmd_tune(args: argparse.Namespace) -> int:
    benchmark = get_benchmark(args.kernel, args.size)
    console = _console_from_args(args)
    telemetry = _telemetry_from_args(args, console)
    with telemetry_session(telemetry) as tel:
        run = run_tuner(
            benchmark,
            args.tuner,
            max_evals=args.max_evals,
            seed=args.seed,
            xgb_trial_cap=None if args.no_xgb_cap else 56,
            jobs=args.jobs,
            timeout=args.timeout,
            repeats=args.repeats,
            probe_repeats=args.probe_repeats,
            promote_margin=args.promote_margin,
            prune=args.prune,
            prune_threshold=args.prune_threshold,
            warm_start_db=args.warm_start_db,
            transfer_db=args.transfer_db,
            transfer_bias=args.transfer_bias,
            label=args.label,
            pipeline=_resolve_pipeline(args),
            compile_jobs=args.compile_jobs,
            refit_every=args.refit_every,
        )
        console.info(
            f"{run.tuner} on {benchmark.name}: best {run.best_runtime:.4g}s at "
            f"{format_tensor_size(args.kernel, run.best_config)} "
            f"({run.n_evals} evals, {run.total_time:,.0f}s process time)"
        )
        if args.csv:
            with open(args.csv, "w") as fh:
                fh.write("eval,elapsed_s,runtime_s\n")
                for i, (t, rt) in enumerate(run.trajectory):
                    fh.write(f"{i},{t:.3f},{rt:.6g}\n")
            console.info(f"trajectory written to {args.csv}")
        if args.db:
            console.progress(f"run stored in {args.db}")
        if tel.enabled:
            console.progress(format_metrics_summary(tel.metrics))
        console.result_json(_run_payload(run))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    try:
        kernel, size, figures = EXPERIMENT_FIGURES[args.name]
    except KeyError:
        # Any registered "<kernel>-<size>" pair runs as a custom experiment.
        from repro.bench import benchmark_entry, benchmark_names

        kernel, _, size = args.name.rpartition("-")
        if kernel in benchmark_names() and size in benchmark_entry(kernel).sizes:
            figures = f"custom pair {kernel}/{size}"
        else:
            print(f"unknown experiment {args.name!r}; known: "
                  f"{', '.join(EXPERIMENT_FIGURES)} or any registered "
                  f"<kernel>-<size> pair (see `repro list`)", file=sys.stderr)
            return 2
    tuners = tuple(ALL_TUNERS)
    if args.tuners:
        from repro.bench import tuner_names

        tuners = tuple(t.strip() for t in args.tuners.split(",") if t.strip())
        unknown = [t for t in tuners if t not in tuner_names()]
        if unknown:
            print(f"unknown tuner(s): {', '.join(unknown)}; known: "
                  f"{', '.join(tuner_names())}", file=sys.stderr)
            return 2
    console = _console_from_args(args)
    telemetry = _telemetry_from_args(args, console)
    with telemetry_session(telemetry) as tel:
        result = run_experiment(
            kernel,
            size,
            tuners=tuners,
            max_evals=args.evals,
            seed=args.seed,
            jobs=args.jobs,
            timeout=args.timeout,
            repeats=args.repeats,
            probe_repeats=args.probe_repeats,
            promote_margin=args.promote_margin,
            prune=args.prune,
            prune_threshold=args.prune_threshold,
            warm_start_db=args.warm_start_db,
            transfer_db=args.transfer_db,
            transfer_bias=args.transfer_bias,
        )
        console.info(f"{figures} — {kernel}/{size}")
        console.info(process_summary_table(result))
        console.info("")
        console.info(min_runtime_table(result))
        if args.csv:
            with open(args.csv, "w") as fh:
                fh.write(trajectory_csv(result))
            console.info(f"\ntrajectories written to {args.csv}")
        if args.db:
            console.progress(f"runs stored in {args.db}")
        if tel.enabled:
            console.progress(format_metrics_summary(tel.metrics))
        console.result_json(
            {
                "kernel": kernel,
                "size": size,
                "figures": figures,
                "runs": {name: _run_payload(r) for name, r in result.runs.items()},
            }
        )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.telemetry.report import report_text

    # A mistyped path must be an error, not a new empty store RunStore creates.
    resolve_store_paths(args.db)
    with RunStore(args.db) as store:
        text = report_text(
            store,
            kernel=args.kernel,
            size_name=args.size,
            to_best=args.to_best,
            tolerance=args.tolerance,
            overhead=args.overhead,
        )
    print(text)
    return 0


def _cmd_transfer(args: argparse.Namespace) -> int:
    """Fit or inspect the run-store transfer corpus / meta-surrogate."""
    from pathlib import Path

    from repro.transfer import MetaSurrogate, TransferCorpus

    exclude = None
    if args.exclude:
        if "/" not in args.exclude:
            print("--exclude expects KERNEL/SIZE (e.g. lu/large)", file=sys.stderr)
            return 2
        kernel, size = args.exclude.split("/", 1)
        exclude = (kernel, size)
    if args.action == "inspect":
        corpus = TransferCorpus.from_store(
            args.db, tuner=args.tuner, exclude=exclude
        )
        print(json.dumps(corpus.summary(), indent=2, sort_keys=True))
        return 0
    meta, corpus = MetaSurrogate.fit_or_load(
        args.db, exclude=exclude, tuner=args.tuner, seed=args.seed
    )
    store = Path(args.db)
    cache_dir = store if store.is_dir() else store.parent
    model_path = cache_dir / f"meta-{meta.info.fingerprint}.pkl"
    print(
        json.dumps(
            {
                "model": str(model_path),
                "meta": meta.summary(),
                "corpus": corpus.summary(),
            },
            indent=2,
            sort_keys=True,
        )
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.telemetry.report import compare_stores

    # A mistyped path must fail the gate, not compare against a new empty store.
    for path in (args.baseline, args.candidate):
        resolve_store_paths(path)
    with RunStore(args.baseline) as base, RunStore(args.candidate) as cand:
        text, regressed = compare_stores(
            base,
            cand,
            threshold=args.threshold,
            kernel=args.kernel,
            size_name=args.size,
        )
    print(text)
    if regressed:
        print(
            f"\n{len(regressed)} regression(s) at the {args.threshold:.0%} threshold",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_autoschedule(args: argparse.Namespace) -> int:
    """Run the mini-AutoScheduler on a kernel's TE graph (swing-priced)."""
    from repro.autoscheduler import SearchTask, TuningOptions, auto_schedule

    if args.kernel == "3mm":
        from repro.kernels.problem_sizes import problem_size
        from repro.kernels.threemm import _threemm_graph

        size = problem_size("3mm", args.size)

        def builder():
            A, B, C, D, _E, _F, G = _threemm_graph(size, "float64")
            return [A, B, C, D, G]

    else:
        print("autoschedule currently supports --kernel 3mm", file=sys.stderr)
        return 2
    task = SearchTask(builder, name=f"{args.kernel}-{args.size}", target="swing")
    result = auto_schedule(task, TuningOptions(n_trials=args.trials, seed=args.seed))
    print(f"sketch parameters (auto-derived): {result.sketch.params}")
    print(f"best annotation: {result.best_annotation}")
    print(f"best modeled runtime: {result.best_cost:.4g}s "
          f"(uncalibrated model units) over {result.n_trials} trials")
    return 0


# -- tuning service ---------------------------------------------------------


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the tuning server until SIGINT/SIGTERM or a shutdown request."""
    import asyncio
    import signal

    from repro.service import ServerConfig, ServerQuotas, TuningServer

    config = ServerConfig(
        root=args.root,
        host=args.host,
        port=args.port,
        workers=args.workers,
        quotas=ServerQuotas(
            max_evals=args.max_evals,
            max_queued=args.max_queued,
            session_timeout=args.session_timeout,
        ),
        retries=args.retries,
        allow_fault_injection=args.allow_fault_injection,
    )

    async def serve() -> None:
        server = TuningServer(config)
        await server.start()
        host, port = server.address
        print(
            f"tuning server listening on {host}:{port} "
            f"({config.workers} workers, root {config.root})",
            file=sys.stderr,
        )
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(
                sig, lambda: loop.create_task(server.stop(drain=True))
            )
        await server.wait_stopped()
        print(
            f"server stopped; shards merged into {server.store.merged_path}",
            file=sys.stderr,
        )

    asyncio.run(serve())
    return 0


def _service_client(args: argparse.Namespace):
    from repro.service import ServiceClient

    return ServiceClient.from_root(args.root)


def _cmd_submit(args: argparse.Namespace) -> int:
    """Submit one job; exits non-zero if the server rejects it."""
    from repro.service import JobRejected

    spec = {
        "kernel": args.kernel,
        "size": args.size,
        "tuner": args.tuner,
        "max_evals": args.max_evals,
        "seed": args.seed,
        "jobs": args.jobs,
        "timeout": args.timeout,
        "repeats": args.repeats,
        "probe_repeats": args.probe_repeats,
        "promote_margin": args.promote_margin,
        "prune": args.prune,
        "prune_threshold": args.prune_threshold,
        "warm_start_db": args.warm_start_db,
        "transfer_from": args.transfer_db,
        "transfer_bias": args.transfer_bias,
        "label": args.label,
        "pipeline": _resolve_pipeline(args),
        "compile_jobs": args.compile_jobs,
        "refit_every": args.refit_every,
    }
    client = _service_client(args)
    try:
        if args.wait:
            record = client.submit_and_wait(spec)
        else:
            record = client.submit(spec)
    except JobRejected as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(record, indent=2, sort_keys=True))
    if args.wait and record["state"] != "done":
        return 1
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    payload = _service_client(args).status(args.job_id)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    """Stream one job's event lines; exit code reflects the job's outcome."""
    final = None
    for item in _service_client(args).watch(args.job_id):
        if isinstance(item, dict):
            final = item
        else:
            print(item)
    if final is None or final["state"] != "done":
        state = final["state"] if final else "unknown"
        error = (final or {}).get("error")
        print(f"job finished {state}" + (f": {error}" if error else ""),
              file=sys.stderr)
        return 1
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    """Offline shard merge (e.g. after an unclean server exit)."""
    from repro.service import ShardedRunStore

    store = ShardedRunStore(args.root)
    merged = store.merge(compact=args.compact)
    with RunStore(merged) as s:
        n = len(s.runs())
    print(f"{n} run(s) in {merged}")
    return 0


def _cmd_ablation(args: argparse.Namespace) -> int:
    from repro.experiments import ablations

    runners = {
        "kappa": ablations.kappa_sweep,
        "surrogate": ablations.surrogate_comparison,
        "init": ablations.initial_points_sweep,
        "measure": ablations.measure_option_ablation,
        "autoscheduler": ablations.autoscheduler_comparison,
    }
    rows = runners[args.which](max_evals=args.evals, seed=args.seed)
    print(format_table(
        [[r.setting, f"{r.best_runtime:.4g}", f"{r.total_time:.1f}", r.n_evals]
         for r in rows],
        headers=["setting", "best runtime (s)", "process time (s)", "evals"],
        title=f"Ablation: {args.which}",
    ))
    return 0


def _add_fidelity_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("measurement fidelity")
    group.add_argument("--repeats", type=int, default=1, metavar="N",
                       help="full per-configuration repeat budget (default 1)")
    group.add_argument("--probe-repeats", type=int, default=None, metavar="N",
                       help="multi-fidelity probing: measure N repeats first "
                       "and promote to the full --repeats budget only when the "
                       "candidate is competitive (losers keep their probe "
                       "estimate, flagged low-fidelity)")
    group.add_argument("--promote-margin", type=float, default=0.15,
                       metavar="FRAC",
                       help="promote when the probe's lower confidence bound "
                       "is within this fraction of the incumbent (default 0.15)")
    group.add_argument("--prune", action="store_true",
                       help="ytopt: skip compilation entirely when the "
                       "surrogate's lower confidence bound says the candidate "
                       "cannot beat --prune-threshold x the incumbent")
    group.add_argument("--prune-threshold", type=float, default=1.25,
                       metavar="MULT",
                       help="prune multiplier over the incumbent (default 1.25)")
    group.add_argument("--warm-start-db", default=None, metavar="PATH",
                       help="ytopt: pre-train the surrogate from matching "
                       "prior runs (same kernel, size, and space hash) in this "
                       "telemetry run store or service shard root; loaded "
                       "records count toward the evaluation budget")


def _add_transfer_args(parser: argparse.ArgumentParser, with_label: bool) -> None:
    group = parser.add_argument_group("transfer learning")
    group.add_argument("--transfer-db", default=None, metavar="PATH",
                       help="ytopt: seed the initial design from a "
                       "meta-surrogate fit on this run store's *other* tasks "
                       "(the target kernel/size is excluded from the fit)")
    group.add_argument("--transfer-bias", type=float, default=0.5,
                       metavar="W",
                       help="weight of the decaying meta-surrogate bias on "
                       "acquisition scores after the seeded initial design "
                       "(default 0.5; 0 seeds the initial design only)")
    if with_label:
        group.add_argument("--label", default=None, metavar="NAME",
                           help="store the run under this identity instead of "
                           "the tuner name (A/B variants side by side, e.g. "
                           "ytopt-cold / ytopt-transfer)")


def _add_pipeline_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("pipelined execution")
    group.add_argument("--pipeline", action="store_true",
                       help="overlap the surrogate ask, a parallel build "
                       "pool with compile-ahead speculation, and measurement "
                       "(implied by --compile-jobs)")
    group.add_argument("--compile-jobs", type=int, default=None, metavar="N",
                       help="build-pool width for ahead-of-time native "
                       "compiles (default: CPU count); implies --pipeline")
    group.add_argument("--refit-every", type=int, default=None, metavar="K",
                       help="surrogate refit policy: 1 = refit on every "
                       "observation (byte-identical to the serial loop), "
                       "0 = geometric schedule (dense early, sparse late); "
                       "default: the loop's own policy")


def _resolve_pipeline(args: argparse.Namespace) -> bool:
    """--compile-jobs implies pipelining."""
    return args.pipeline or args.compile_jobs is not None


def _add_telemetry_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("telemetry")
    group.add_argument("--db", default=None, metavar="PATH",
                       help="persist every run + evaluation to this SQLite run "
                       "store (read back with 'repro report' / 'repro compare')")
    group.add_argument("--trace", default=None, metavar="PATH",
                       help="append a JSONL event trace (runs, trials, spans, "
                       "cache hits, worker faults)")
    group.add_argument("--quiet", action="store_true",
                       help="suppress live progress output")
    group.add_argument("--json", action="store_true",
                       help="emit one JSON document on stdout instead of text")
    group.add_argument("--no-telemetry", action="store_true",
                       help="disable the telemetry subsystem entirely")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TVM-style autotuning with Bayesian optimization "
        "(SC 2023 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    from repro.bench import benchmark_names, tuner_names

    bench_kernels = list(benchmark_names())
    bench_tuners = list(tuner_names())

    sub.add_parser("info", help="list the paper's benchmarks, tuners, experiments")
    sub.add_parser("table1", help="regenerate Table 1")

    p_list = sub.add_parser(
        "list", help="list every registered benchmark and tuner (plugin registry)"
    )
    p_list.add_argument("--json", action="store_true",
                        help="machine-readable registry dump")

    p_tune = sub.add_parser("tune", help="run one tuner on one benchmark")
    p_tune.add_argument("--kernel", required=True, choices=bench_kernels)
    p_tune.add_argument("--size", required=True,
                        choices=["mini", "small", "medium", "large", "extralarge"])
    p_tune.add_argument("--tuner", default="ytopt", choices=bench_tuners)
    p_tune.add_argument("--max-evals", type=int, default=100)
    p_tune.add_argument("--seed", type=int, default=0)
    p_tune.add_argument("--csv", help="write the evaluation trajectory here")
    p_tune.add_argument("--no-xgb-cap", action="store_true",
                        help="lift the paper's 56-evaluation XGB stall")
    p_tune.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="parallel measurement width (batched proposals, "
                        "max-of-wave process-time accounting)")
    p_tune.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="per-trial kernel wall-clock budget in seconds "
                        "(timed-out trials are recorded as failed)")
    _add_pipeline_args(p_tune)
    _add_fidelity_args(p_tune)
    _add_transfer_args(p_tune, with_label=True)
    _add_telemetry_args(p_tune)

    p_exp = sub.add_parser("experiment", help="run a full 5-tuner paper experiment")
    p_exp.add_argument("name", help=f"one of: {', '.join(EXPERIMENT_FIGURES)}; "
                       "or any registered <kernel>-<size> pair (see `repro list`)")
    p_exp.add_argument("--tuners", default=None, metavar="T1,T2,...",
                       help="comma-separated tuner subset (default: the paper's "
                       "five; any registered tuner accepted)")
    p_exp.add_argument("--evals", type=int, default=100)
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--csv", help="write all trajectories here")
    p_exp.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="parallel measurement width for every tuner")
    p_exp.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="per-trial kernel wall-clock budget in seconds")
    _add_fidelity_args(p_exp)
    _add_transfer_args(p_exp, with_label=False)
    _add_telemetry_args(p_exp)

    p_report = sub.add_parser(
        "report", help="regenerate the paper tables from a telemetry run store"
    )
    p_report.add_argument("--db", default="results/runs.sqlite",
                          help="SQLite run store written by tune/experiment --db")
    p_report.add_argument("--kernel", default=None,
                          help="restrict to one kernel (default: all stored)")
    p_report.add_argument("--size", default=None,
                          help="restrict to one problem size")
    p_report.add_argument("--to-best", action="store_true",
                          help="append the sample-efficiency table: evaluations "
                          "each run needed to get within --tolerance of the "
                          "best stored runtime")
    p_report.add_argument("--tolerance", type=float, default=0.05,
                          metavar="FRAC",
                          help="the --to-best band around the best runtime "
                          "(default 0.05)")
    p_report.add_argument("--overhead", action="store_true",
                          help="append the overhead_breakdown table: each "
                          "run's wall time split into compile vs. measure "
                          "vs. search seconds (engine-stamped when "
                          "available, derived from evaluation rows "
                          "otherwise)")

    p_transfer = sub.add_parser(
        "transfer",
        help="fit/inspect the cross-task meta-surrogate over a run store",
    )
    p_transfer.add_argument("action", choices=["fit", "inspect"],
                            help="fit: train (or load the cached) "
                            "meta-surrogate; inspect: corpus summary only")
    p_transfer.add_argument("--db", default="results/runs.sqlite",
                            help="run store (SQLite file or service shard root)")
    p_transfer.add_argument("--exclude", default=None, metavar="KERNEL/SIZE",
                            help="drop one task from the corpus before fitting "
                            "(the leave-task-out honesty switch; use the task "
                            "you intend to seed)")
    p_transfer.add_argument("--tuner", default=None,
                            help="restrict corpus runs to one tuner "
                            "(default: all measured runs)")
    p_transfer.add_argument("--seed", type=int, default=0,
                            help="meta-surrogate forest seed (default 0)")

    p_cmp = sub.add_parser(
        "compare", help="diff two run stores and flag regressions"
    )
    p_cmp.add_argument("baseline", help="baseline run store (SQLite)")
    p_cmp.add_argument("candidate", help="candidate run store (SQLite)")
    p_cmp.add_argument("--threshold", type=float, default=0.10, metavar="FRAC",
                       help="flag best-runtime/process-time increases >= this "
                       "fraction (default 0.10)")
    p_cmp.add_argument("--kernel", default=None)
    p_cmp.add_argument("--size", default=None)

    p_auto = sub.add_parser(
        "autoschedule", help="run the mini-AutoScheduler (auto-generated space)"
    )
    p_auto.add_argument("--kernel", default="3mm", choices=["3mm"])
    p_auto.add_argument("--size", default="extralarge",
                        choices=["mini", "small", "medium", "large", "extralarge"])
    p_auto.add_argument("--trials", type=int, default=64)
    p_auto.add_argument("--seed", type=int, default=0)

    p_serve = sub.add_parser(
        "serve", help="run the multi-tenant tuning server"
    )
    p_serve.add_argument("--root", default="results/service",
                         help="server state directory: shards/, traces/, "
                         "merged.sqlite, server.json (default results/service)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0,
                         help="TCP port (default 0 = OS-assigned; the bound "
                         "port is written to <root>/server.json)")
    p_serve.add_argument("--workers", type=int, default=4, metavar="N",
                         help="concurrent tuning sessions (default 4)")
    p_serve.add_argument("--max-evals", type=int, default=500, metavar="N",
                         help="quota: reject jobs asking for more evaluations")
    p_serve.add_argument("--max-queued", type=int, default=64, metavar="N",
                         help="quota: reject submissions once this many jobs "
                         "are queued")
    p_serve.add_argument("--session-timeout", type=float, default=None,
                         metavar="S",
                         help="quota: cancel any session running longer than "
                         "this wall-clock budget (default: unlimited)")
    p_serve.add_argument("--retries", type=int, default=1, metavar="N",
                         help="re-run a crashed session this many times before "
                         "failing the job (default 1)")
    p_serve.add_argument("--allow-fault-injection", action="store_true",
                         help="accept test-battery fault directives in job "
                         "specs (never enable in real deployments)")

    p_sub = sub.add_parser("submit", help="submit one tuning job to a server")
    p_sub.add_argument("--root", default="results/service",
                       help="server root (reads <root>/server.json)")
    p_sub.add_argument("--kernel", required=True, choices=bench_kernels)
    p_sub.add_argument("--size", required=True,
                       choices=["mini", "small", "medium", "large", "extralarge"])
    p_sub.add_argument("--tuner", default="ytopt", choices=bench_tuners)
    p_sub.add_argument("--max-evals", type=int, default=100)
    p_sub.add_argument("--seed", type=int, default=0)
    p_sub.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="parallel measurement width inside the session")
    p_sub.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="per-trial kernel wall-clock budget in seconds")
    p_sub.add_argument("--wait", action="store_true",
                       help="block until the job finishes; exit 0 only if it "
                       "completed successfully")
    _add_pipeline_args(p_sub)
    _add_fidelity_args(p_sub)
    _add_transfer_args(p_sub, with_label=True)

    p_stat = sub.add_parser("status", help="query a tuning server")
    p_stat.add_argument("--root", default="results/service")
    p_stat.add_argument("--job-id", default=None,
                        help="one job's record (default: whole-server summary)")

    p_watch = sub.add_parser(
        "watch", help="stream a job's telemetry events (replay + live follow)"
    )
    p_watch.add_argument("--root", default="results/service")
    p_watch.add_argument("job_id", help="job to watch (from submit/status)")

    p_merge = sub.add_parser(
        "merge", help="fold session shards into <root>/merged.sqlite offline"
    )
    p_merge.add_argument("--root", default="results/service")
    p_merge.add_argument("--compact", action="store_true",
                         help="delete shard files after a successful merge")

    p_abl = sub.add_parser("ablation", help="run a design-choice ablation")
    p_abl.add_argument(
        "which", choices=["kappa", "surrogate", "init", "measure", "autoscheduler"]
    )
    p_abl.add_argument("--evals", type=int, default=50)
    p_abl.add_argument("--seed", type=int, default=0)

    return parser


_COMMANDS = {
    "info": _cmd_info,
    "list": _cmd_list,
    "table1": _cmd_table1,
    "tune": _cmd_tune,
    "experiment": _cmd_experiment,
    "report": _cmd_report,
    "compare": _cmd_compare,
    "transfer": _cmd_transfer,
    "autoschedule": _cmd_autoschedule,
    "ablation": _cmd_ablation,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "status": _cmd_status,
    "watch": _cmd_watch,
    "merge": _cmd_merge,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
