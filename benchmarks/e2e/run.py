"""End-to-end benchmark: whole tuning runs timed end to end and per layer.

From the repository root:

    python benchmarks/e2e/run.py [--reps 3] [--seed 0] [--workload NAME]
        [--trace] [--trace-out PATH] [--json PATH] [--preset full|smoke]
    python benchmarks/e2e/run.py --compare BASE.json NEW.json
    python benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

The first form runs every workload ``--reps`` times, interleaved
(w1, w2, w3, w1, ...), then one traced rep per workload with ``--trace``; it
prints every metric with unit, median, min/max and sample count and exits 1
when an output check fails. The second applies the bounds of BENCHMARK.json
to two ``--json`` documents. The third measures one workload for ``--seconds``
and prints one JSON line last: end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``.

Every rep is a fresh ``rep.py`` process with its own REPRO_NATIVE_DIR, run
one at a time, under ``.bench_build/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import END_TO_END, EXACT_GATES, PER_LAYER, PRESET_EVALS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Setup-only reps started right before each untraced rep; the rep's setup_s
#: is the median of theirs and its own, so one burst of host load cannot set it.
SETUP_PROBES = 2
#: A rep that runs longer than this is killed and the run fails.
REP_TIMEOUT_S = 120


class BenchmarkError(RuntimeError):
    """The benchmark could not run (missing sources, a crashed rep)."""


class RepRunner:
    """Starts rep processes one at a time, each in a fresh directory."""

    def __init__(self, base: Path) -> None:
        self.base = base
        self.count = 0

    def _spawn(self, args: list[str], workdir: Path) -> None:
        for sub in ("native", "tmp"):
            (workdir / sub).mkdir(parents=True)
        env = dict(os.environ, REPRO_NATIVE_DIR=str(workdir / "native"), TMPDIR=str(workdir / "tmp"))
        # A session of its own, so stopping the rep also stops its cc children.
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "rep.py"), *args],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=REP_TIMEOUT_S)
        except BaseException as exc:  # a timeout, or SIGTERM/SIGINT of this process
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchmarkError(f"rep {' '.join(args)} timed out after {REP_TIMEOUT_S}s") from None
            raise
        if proc.returncode != 0:
            raise BenchmarkError(
                f"rep {' '.join(args)} exited {proc.returncode}:\n{(err or out)[-2000:]}"
            )

    def warm(self) -> None:
        workdir = self.base / "warm"
        try:
            self._spawn(["--warm"], workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def rep(self, workload: str, seed: int, evals: int, *, trace: bool = False,
            spans: bool = False, setup_only: bool = False) -> dict:
        self.count += 1
        workdir = self.base / f"rep-{self.count}"
        out = workdir / "rep.json"
        args = ["--workload", workload, "--seed", str(seed), "--evals", str(evals),
                "--workdir", str(workdir), "--out", str(out)]
        args += ["--trace"] * trace + ["--spans"] * spans + ["--setup-only"] * setup_only
        try:
            self._spawn(args, workdir)
            return json.loads(out.read_text())
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def measured_rep(self, workload: str, seed: int, evals: int) -> dict:
        """An untraced rep whose setup_s is the median over it and
        SETUP_PROBES setup-only reps started just before it."""
        setups = [
            self.rep(workload, seed, evals, setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)
        ]
        rep = self.rep(workload, seed, evals)
        rep["setup_s"] = statistics.median(setups + [rep["setup_s"]])
        return rep


# -- aggregation -------------------------------------------------------------


def stat(values: list[float], unit: str) -> dict:
    return {
        "unit": unit,
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "values": values,
    }


def gate_failures(name: str, reps: list[dict]) -> list[str]:
    """Correctness gates over every rep (traced or not) of one workload."""
    failures = []
    for i, rep in enumerate(reps):
        where = f"{name} rep {i + 1}"
        if rep["search"]["trials"] < rep["evals"]:
            failures.append(f"{where}: {rep['search']['trials']} trials of a {rep['evals']}-eval budget")
        if rep["check"]["backend"] != "native":
            failures.append(f"{where}: winner ran on the {rep['check']['backend']!r} tier, not native")
        if rep["check"]["error"] is not None:
            failures.append(f"{where}: winner output wrong: {rep['check']['error']}")
    if WORKLOADS[name].kind == "swing":
        outcomes = {
            (json.dumps(r["best_config"], sort_keys=True), r["best_runtime_s"], r["search"]["evals_to_5pct"])
            for r in reps if r["seed"] == reps[0]["seed"]
        }
        if len(outcomes) > 1:
            failures.append(f"{name}: same seed, different trajectories: {sorted(outcomes)}")
    return failures


def summarize(name: str, reps: list[dict]) -> dict:
    """Metrics of one workload from its untraced and traced reps."""
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    summary: dict = {"end_to_end": {}, "failures": gate_failures(name, reps)}
    trials = sum(r["search"]["trials"] for r in reps)
    summary["attempted"] = sum(r["evals"] for r in reps)
    summary["failed"] = sum(r["search"]["failed"] for r in reps) + summary["attempted"] - trials
    # Per-rep search diagnostics: on native workloads these move with
    # timing noise, so they are shown, never gated.
    summary["search"] = {
        "evals_to_5pct": [r["search"]["evals_to_5pct"] for r in reps],
        "best_kernel_us": [r["check"]["best_kernel_us"] for r in reps],
    }
    if plain:
        e2e = summary["end_to_end"]
        for metric in ("wall_s", "setup_s", "peak_rss_mb"):
            e2e[metric] = stat([r[metric] for r in plain], END_TO_END[metric][0])
        e2e["failed_trial_frac"] = stat([summary["failed"] / summary["attempted"]], "ratio")
        ok = sum(1 for r in reps if r["check"]["error"] is None and r["check"]["backend"] == "native")
        e2e["output_ok_frac"] = stat([ok / len(reps)], "ratio")
        if WORKLOADS[name].kind == "swing":
            e2e["evals_to_5pct"] = stat([r["search"]["evals_to_5pct"] for r in plain], "evals")
            e2e["best_runtime_s"] = stat([r["best_runtime_s"] for r in plain], "s")
    if traced:
        per_layer = {}
        for metric in traced[0]["per_layer"]:
            values = [r["per_layer"][metric] for r in traced if r["per_layer"][metric] is not None]
            per_layer[metric] = statistics.median(values) if values else None
        intervals = [ms for r in traced for ms in r["search"]["intervals_ms"]]
        per_layer["search.trial_p50_ms"] = statistics.median(intervals)
        per_layer["search.trial_p90_ms"] = statistics.quantiles(intervals, n=10)[-1]
        summary["trial_intervals_n"] = len(intervals)
        if plain:
            traced_wall = statistics.median(r["wall_s"] for r in traced)
            per_layer["trace.overhead_frac"] = traced_wall / summary["end_to_end"]["wall_s"]["median"] - 1
        summary["per_layer"] = per_layer
        summary["layers"] = traced[0]["layers"]
        summary["threads"] = traced[0]["threads"]
        summary["wall_traced_s"] = traced[0]["wall_s"]
    return summary


# -- reporting ---------------------------------------------------------------


def print_summary(name: str, summary: dict) -> None:
    print(f"\n== {name}: {WORKLOADS[name].why}")
    if summary["end_to_end"]:
        print(f"  {'metric':<20} {'unit':<6} {'median':>12} {'min':>12} {'max':>12} {'n':>3}")
        for metric, s in summary["end_to_end"].items():
            print(f"  {metric:<20} {s['unit']:<6} {s['median']:>12.6g} {s['min']:>12.6g} "
                  f"{s['max']:>12.6g} {s['n']:>3}")
    kernel_us = ", ".join("-" if us is None else f"{us:.4g}" for us in summary["search"]["best_kernel_us"])
    print(f"  per rep: evals_to_5pct {summary['search']['evals_to_5pct']}, "
          f"winner kernel us [{kernel_us}]")
    if "layers" in summary:
        wall = summary["wall_traced_s"]
        print(f"  traced rep, wall {wall:.3f} s")
        print(f"  {'layer':<24} {'calls':>7} {'total_s':>10} {'self_s':>10} {'share':>7}")
        for layer, e in sorted(summary["layers"].items(), key=lambda kv: -kv[1]["total_s"]):
            print(f"  {layer:<24} {e['calls']:>7} {e['total_s']:>10.4f} {e['self_s']:>10.4f} "
                  f"{e['total_s'] / wall:>7.1%}")
        for thread, e in summary["threads"].items():
            print(f"  thread {thread:<17} self {e['self_s']:.4f} s of {e['wall_s']:.4f} s")
        print(f"  {'per-layer metric':<30} {'unit':<6} {'value':>12}")
        for metric, value in summary["per_layer"].items():
            shown = "-" if value is None else f"{value:.6g}"
            print(f"  {metric:<30} {PER_LAYER[metric][0]:<6} {shown:>12}")
        print(f"  (trial intervals pooled over n={summary['trial_intervals_n']})")
    for failure in summary["failures"]:
        print(f"  GATE FAILURE: {failure}")


def environment(reps: list[dict]) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        sha = None
    versions = next((r["versions"] for r in reps if "versions" in r), {})
    return {"nproc": os.cpu_count(), "git_sha": sha, **versions}


# -- modes ---------------------------------------------------------------------


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchmarkError(f"{path} not found")
    return json.loads(path.read_text())


def check_sources() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program sources under {ROOT / 'src'}; run from a full checkout")


def timed_mode(args, runner: RepRunner) -> int:
    """One workload for ``--seconds``; the last stdout line is the result."""
    spec = load_spec()
    (name,) = args.workload
    evals = PRESET_EVALS[args.preset] or WORKLOADS[name].evals
    runner.warm()
    trace = bool(args.trace)
    reps: list[dict] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if trace:
            reps.append(runner.rep(name, args.seed, evals, trace=True))
        else:
            reps.append(runner.measured_rep(name, args.seed, evals))
        took = time.perf_counter() - t0
        # Start another rep only if it is expected to end inside --seconds.
        if time.perf_counter() - start + took > args.seconds:
            break
    summary = summarize(name, reps)
    print_summary(name, summary)
    if trace:
        wanted = spec["per_layer"]
        values = summary["per_layer"]
    else:
        wanted = spec["end_to_end"]
        values = {m: s["median"] for m, s in summary["end_to_end"].items()}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = not summary["failures"]
    print(json.dumps({
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


def human_mode(args, runner: RepRunner) -> int:
    names = args.workload or list(WORKLOADS)
    evals = {n: PRESET_EVALS[args.preset] or WORKLOADS[n].evals for n in names}
    runner.warm()
    reps: dict[str, list[dict]] = {n: [] for n in names}
    for i in range(args.reps):
        for n in names:
            reps[n].append(runner.measured_rep(n, args.seed, evals[n]))
            print(f"[e2e] rep {i + 1}/{args.reps} {n}: wall {reps[n][-1]['wall_s']:.3f} s", flush=True)
    if args.trace:
        for n in names:
            reps[n].append(runner.rep(n, args.seed, evals[n], trace=True, spans=bool(args.trace_out)))
            print(f"[e2e] traced {n}: wall {reps[n][-1]['wall_s']:.3f} s", flush=True)
    doc = {
        "claim": None,
        "preset": args.preset,
        "seed": args.seed,
        "reps": args.reps,
        "env": environment([r for rs in reps.values() for r in rs]),
        "workloads": {n: summarize(n, reps[n]) for n in names},
    }
    print(f"\nenvironment: {json.dumps(doc['env'])}")
    for n in names:
        print_summary(n, doc["workloads"][n])
    if args.trace_out:
        events = []
        for pid, n in enumerate(names, start=1):
            events.append({"name": "process_name", "ph": "M", "pid": pid, "args": {"name": n}})
            for rep in reps[n]:
                events += [dict(e, pid=pid) for e in rep.get("chrome", [])]
        Path(args.trace_out).write_text(json.dumps({"traceEvents": events}))
        print(f"[e2e] wrote {args.trace_out}")
    if args.json:
        Path(args.json).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"[e2e] wrote {args.json}")
    failures = [f for s in doc["workloads"].values() for f in s["failures"]]
    print("\n[e2e] " + ("all output checks passed" if not failures else f"{len(failures)} gate failure(s)"))
    return 1 if failures else 0


# -- comparison ----------------------------------------------------------------


def load_doc(path: str) -> dict:
    """A ``--json`` document; a file holding ``"runs"`` pools their values."""
    doc = json.loads(Path(path).read_text())
    if "runs" not in doc:
        return doc
    pooled: dict = {"workloads": {}}
    for run in doc["runs"]:
        for name, summary in run["workloads"].items():
            target = pooled["workloads"].setdefault(name, {"end_to_end": {}})["end_to_end"]
            for metric, s in summary["end_to_end"].items():
                values = target.get(metric, {"values": []})["values"] + s["values"]
                target[metric] = stat(values, s["unit"])
    return pooled


def verdict(base: list[float], new: list[float], bound: float, better: str) -> str:
    """``better``/``same``/``worse``, or ``unresolved`` when either side's
    min-max spread is wider than the bound and NEW does not beat BASE in
    every pairing."""
    sign = 1.0 if better == "lower" else -1.0
    mb, mn = statistics.median(base), statistics.median(new)
    if bound == 0:
        return "same" if mn == mb else ("worse" if sign * (mn - mb) > 0 else "better")
    worst_new = max(new) if better == "lower" else min(new)
    best_base = min(base) if better == "lower" else max(base)
    beats_all = sign * worst_new < sign * best_base
    spread = max((max(v) - min(v)) / abs(statistics.median(v)) for v in (base, new))
    if spread > bound and not beats_all:
        return "unresolved"
    change = sign * (mn - mb) / abs(mb)
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def compare_mode(base_path: str, new_path: str) -> int:
    bounds = {m["name"]: m["bound"] for m in load_spec()["end_to_end"]}
    base, new = load_doc(base_path), load_doc(new_path)
    worse = 0
    print(f"{'workload':<22} {'metric':<20} {'base':>12} {'new':>12} {'bound':>6}  verdict")
    for name in base["workloads"]:
        if name not in new["workloads"]:
            continue
        b_e2e, n_e2e = base["workloads"][name]["end_to_end"], new["workloads"][name]["end_to_end"]
        for metric, (_, better) in END_TO_END.items():
            if metric not in b_e2e or metric not in n_e2e:
                continue
            bound = 0.0 if metric in EXACT_GATES else bounds[metric]
            result = verdict(b_e2e[metric]["values"], n_e2e[metric]["values"], bound, better)
            worse += result == "worse"
            print(f"{name:<22} {metric:<20} {b_e2e[metric]['median']:>12.6g} "
                  f"{n_e2e[metric]['median']:>12.6g} {bound:>6.2f}  {result}")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--preset", choices=sorted(PRESET_EVALS), default="full")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="add traced reps (per-layer metrics); a bare --trace means 1")
    parser.add_argument("--trace-out", metavar="PATH", help="write traced spans as Chrome trace-event JSON")
    parser.add_argument("--json", metavar="PATH", help="write the result document")
    parser.add_argument("--seconds", type=float,
                        help="measure one workload this long; print one JSON line last")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so the running rep is stopped and the
    # build directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    if args.seconds is not None and (not args.workload or len(args.workload) != 1):
        parser.error("--seconds measures exactly one --workload")
    try:
        if args.compare:
            return compare_mode(*args.compare)
        check_sources()
        base = ROOT / ".bench_build" / "e2e" / str(os.getpid())
        try:
            runner = RepRunner(base)
            if args.seconds is not None:
                return timed_mode(args, runner)
            return human_mode(args, runner)
        finally:
            shutil.rmtree(base, ignore_errors=True)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
