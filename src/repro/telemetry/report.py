"""Regenerate the paper's tables from the run store; diff two stores.

``repro report`` rebuilds each stored (kernel, size) experiment into the same
:class:`~repro.experiments.runner.ExperimentResult` shape the in-process
drivers produce and renders it through the *same* formatting code
(:func:`~repro.experiments.figures.min_runtime_table`,
:func:`~repro.experiments.figures.process_summary_table`), so a report
generated from disk matches the live experiment output exactly — number for
number, character for character.

``repro compare`` matches runs across two stores by identity
(kernel, size, tuner, seed) and flags regressions: a best-runtime or
process-time increase at or beyond the threshold fraction (default 10%).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.common.errors import ReproError
from repro.telemetry.store import RunStore, StoredRun


def _trajectory(store: RunStore, run: StoredRun) -> list[tuple[float, float]]:
    """Rebuild the (process time, runtime) trajectory a TunerRun carries,
    with the same ``inf`` for a failed evaluation, so reports match the
    in-process tables byte for byte."""
    return [
        (e.elapsed, e.runtime if e.ok else math.inf)
        for e in store.evaluations(run.run_id)
    ]


def experiment_from_store(store: RunStore, kernel: str, size_name: str):
    """Reconstruct an ExperimentResult for one stored (kernel, size)."""
    from repro.experiments.runner import ExperimentResult, TunerRun

    stored = store.runs(kernel=kernel, size_name=size_name)
    if not stored:
        raise ReproError(f"no stored runs for {kernel}/{size_name} in {store.path}")
    runs: dict[str, TunerRun] = {}
    max_evals = 0
    for run in stored:
        runs[run.tuner] = TunerRun(
            tuner=run.tuner,
            kernel=run.kernel,
            size_name=run.size_name,
            best_config=run.best_config,
            best_runtime=run.best_runtime,
            n_evals=run.n_evals,
            total_time=run.total_time,
            trajectory=_trajectory(store, run),
        )
        max_evals = max(max_evals, run.max_evals or 0)
    return ExperimentResult(
        kernel=kernel, size_name=size_name, max_evals=max_evals, runs=runs
    )


def _backend_summary(evals) -> str:
    """Collapse per-trial execution tiers into one cell: the single tier when
    uniform (``tensor``), all tiers by descending frequency when mixed
    (``tensor/interp``), ``-`` when no trial recorded one (pre-backend store)."""
    from collections import Counter

    tiers = Counter(e.backend for e in evals if e.backend)
    if not tiers:
        return "-"
    return "/".join(t for t, _ in tiers.most_common())


def evaluation_count_table(store: RunStore, kernel: str, size_name: str) -> str:
    """Per-tuner evaluation counts, failures, cache hits, fidelity breakdown
    (pruned / promoted), and execution-backend tier — a store-only view."""
    from repro.common.tabulate import format_table

    rows = []
    for run in store.runs(kernel=kernel, size_name=size_name):
        evals = store.evaluations(run.run_id)
        failures = sum(1 for e in evals if not e.ok)
        hits = sum(1 for e in evals if e.cache_hit)
        pruned = sum(1 for e in evals if e.fidelity in ("pruned", "probe"))
        promoted = sum(1 for e in evals if e.fidelity == "promoted")
        backend = _backend_summary(evals)
        seed = run.metadata.get("seed", run.seed)
        rows.append(
            [run.tuner, run.n_evals, failures, hits, pruned, promoted, backend, seed]
        )
    rows.sort(key=lambda r: str(r[0]))
    return format_table(
        rows,
        headers=[
            "tuner", "evals", "failures", "cache hits",
            "pruned", "promoted", "backend", "seed",
        ],
        title=f"Evaluations — {kernel} / {size_name}",
    )


def overhead_breakdown_table(store: RunStore, kernel: str, size_name: str) -> str:
    """Per-run wall-time split: compile vs. measure vs. search seconds.

    Metadata-first: runs whose engine accounted its stages (the serial and
    pipelined AMBS loops stamp an ``overhead_breakdown`` dict into the run
    metadata) report the engine's own numbers, plus the pipeline counters when
    present (compile-ahead hit rate, refits run vs. skipped). Older runs fall
    back to a derivation from the evaluation rows — compile = Σ compile_time,
    measure = Σ runtime, search = the process-time remainder — marked
    ``derived`` so the two provenances are never confused.
    """
    from repro.common.tabulate import format_table

    stored = store.runs(kernel=kernel, size_name=size_name)
    if not stored:
        raise ReproError(f"no stored runs for {kernel}/{size_name} in {store.path}")
    rows = []
    for run in stored:
        meta = run.metadata.get("overhead_breakdown")
        if isinstance(meta, dict) and "wall_seconds" in meta:
            mode = str(meta.get("mode", "engine"))
            compile_s = float(meta.get("compile_seconds", 0.0))
            measure_s = float(meta.get("measure_seconds", 0.0))
            search_s = float(meta.get("search_seconds", 0.0))
            wall_s = float(meta.get("wall_seconds", 0.0))
            if "spec_hit_rate" in meta:
                mode += f" (hit {meta['spec_hit_rate']:.0%})"
        else:
            evals = store.evaluations(run.run_id)
            compile_s = sum(e.compile_time for e in evals)
            measure_s = sum(e.runtime for e in evals if math.isfinite(e.runtime))
            wall_s = run.total_time
            search_s = max(0.0, wall_s - compile_s - measure_s)
            mode = "derived"
        rows.append(
            [
                run.tuner,
                run.metadata.get("seed", run.seed),
                mode,
                f"{compile_s:.2f}",
                f"{measure_s:.2f}",
                f"{search_s:.2f}",
                f"{wall_s:.2f}",
            ]
        )
    rows.sort(key=lambda r: (str(r[0]), str(r[1])))
    return format_table(
        rows,
        headers=[
            "tuner", "seed", "mode",
            "compile (s)", "measure (s)", "search (s)", "wall (s)",
        ],
        title=f"Overhead breakdown — {kernel} / {size_name}",
    )


def evals_to_within(
    trajectory: "list[tuple[float, float]]",
    target: float,
    tolerance: float = 0.05,
) -> int | None:
    """Evaluations until the best-so-far runtime is within ``tolerance`` of
    ``target`` (1-based count), or None if the run never got there.

    The sample-efficiency metric of the transfer-learning evaluation: a
    seeded search that reaches within 5% of the known best in fewer
    evaluations converted its prior into real budget savings, whatever its
    final best happened to be.
    """
    if target <= 0 or not math.isfinite(target):
        raise ReproError(f"target runtime must be positive and finite, got {target}")
    if tolerance < 0:
        raise ReproError(f"tolerance must be >= 0, got {tolerance}")
    limit = target * (1.0 + tolerance)
    best = math.inf
    for i, (_, runtime) in enumerate(trajectory, 1):
        best = min(best, runtime)
        if best <= limit:
            return i
    return None


def evals_to_best_table(
    store: RunStore, kernel: str, size_name: str, tolerance: float = 0.05
) -> str:
    """Per-run sample efficiency against the best runtime any run found.

    The reference is the smallest stored best runtime across every tuner of
    this (kernel, size) — the "known best" the 5% band is drawn around.
    """
    from repro.common.tabulate import format_table

    stored = store.runs(kernel=kernel, size_name=size_name)
    if not stored:
        raise ReproError(f"no stored runs for {kernel}/{size_name} in {store.path}")
    finite = [r.best_runtime for r in stored if math.isfinite(r.best_runtime)]
    if not finite:
        raise ReproError(
            f"no finite best runtime stored for {kernel}/{size_name}; "
            f"cannot anchor the within-{tolerance:.0%} band"
        )
    target = min(finite)
    rows = []
    for run in stored:
        n = evals_to_within(_trajectory(store, run), target, tolerance)
        rows.append(
            [
                run.tuner,
                run.metadata.get("seed", run.seed),
                f"{run.best_runtime:.4g}",
                n if n is not None else "never",
                run.n_evals,
            ]
        )
    rows.sort(key=lambda r: (str(r[0]), str(r[1])))
    return format_table(
        rows,
        headers=["tuner", "seed", "best (s)", f"evals to {tolerance:.0%}", "evals"],
        title=(
            f"Evals to within {tolerance:.0%} of best "
            f"({target:.4g}s) — {kernel} / {size_name}"
        ),
    )


def report_text(
    store: RunStore,
    kernel: str | None = None,
    size_name: str | None = None,
    to_best: bool = False,
    tolerance: float = 0.05,
    overhead: bool = False,
) -> str:
    """The full ``repro report`` text for every matching stored experiment.

    ``to_best`` appends the sample-efficiency table
    (:func:`evals_to_best_table`) and ``overhead`` the wall-time split
    (:func:`overhead_breakdown_table`) to each experiment section; both off
    by default so existing report output stays byte-identical.
    """
    from repro.experiments.figures import min_runtime_table, process_summary_table

    pairs = [
        (k, s)
        for k, s in store.experiments()
        if (kernel is None or k == kernel) and (size_name is None or s == size_name)
    ]
    if not pairs:
        raise ReproError(
            f"no stored runs{' for ' + kernel if kernel else ''}"
            f"{'/' + size_name if size_name else ''} in {store.path}"
        )
    sections = []
    for k, s in pairs:
        result = experiment_from_store(store, k, s)
        tables = [
            process_summary_table(result),
            min_runtime_table(result),
            evaluation_count_table(store, k, s),
        ]
        if overhead:
            tables.append(overhead_breakdown_table(store, k, s))
        if to_best:
            tables.append(evals_to_best_table(store, k, s, tolerance=tolerance))
        sections.append("\n\n".join(tables))
    return "\n\n".join(sections)


# ---------------------------------------------------------------------------
# repro compare
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunComparison:
    """One matched run across the two stores."""

    kernel: str
    size_name: str
    tuner: str
    seed: int | None
    baseline_best: float
    candidate_best: float
    baseline_time: float
    candidate_time: float

    @property
    def best_change(self) -> float:
        """Fractional change in best runtime (positive = candidate slower)."""
        return _fractional_change(self.baseline_best, self.candidate_best)

    @property
    def time_change(self) -> float:
        """Fractional change in total process time."""
        return _fractional_change(self.baseline_time, self.candidate_time)

    def regressed(self, threshold: float) -> bool:
        return self.best_change >= threshold or self.time_change >= threshold


def _fractional_change(baseline: float, candidate: float) -> float:
    if baseline == 0:
        return 0.0 if candidate == 0 else math.inf
    return (candidate - baseline) / baseline


def compare_stores(
    baseline: RunStore,
    candidate: RunStore,
    threshold: float = 0.10,
    kernel: str | None = None,
    size_name: str | None = None,
) -> tuple[str, list[RunComparison]]:
    """Diff two stores; returns (report text, regressed comparisons).

    Runs are matched by (kernel, size, tuner, seed); unmatched runs on either
    side are listed but never flagged. A comparison regresses when best
    runtime or process time worsened by ``threshold`` (fraction) or more.
    """
    from repro.common.tabulate import format_table

    if threshold <= 0:
        raise ReproError(f"threshold must be positive, got {threshold}")
    base_runs = {
        (r.kernel, r.size_name, r.tuner, r.seed): r
        for r in baseline.runs(kernel=kernel, size_name=size_name)
    }
    cand_runs = {
        (r.kernel, r.size_name, r.tuner, r.seed): r
        for r in candidate.runs(kernel=kernel, size_name=size_name)
    }
    matched = sorted(base_runs.keys() & cand_runs.keys())
    comparisons = [
        RunComparison(
            kernel=k[0],
            size_name=k[1],
            tuner=k[2],
            seed=k[3],
            baseline_best=base_runs[k].best_runtime,
            candidate_best=cand_runs[k].best_runtime,
            baseline_time=base_runs[k].total_time,
            candidate_time=cand_runs[k].total_time,
        )
        for k in matched
    ]
    regressed = [c for c in comparisons if c.regressed(threshold)]

    rows = []
    for c in comparisons:
        rows.append(
            [
                f"{c.kernel}/{c.size_name}",
                c.tuner,
                f"{c.baseline_best:.4g}",
                f"{c.candidate_best:.4g}",
                f"{c.best_change:+.1%}",
                f"{c.time_change:+.1%}",
                "REGRESSION" if c.regressed(threshold) else "ok",
            ]
        )
    text = format_table(
        rows,
        headers=[
            "experiment",
            "tuner",
            "base best (s)",
            "new best (s)",
            "Δbest",
            "Δtime",
            f"@{threshold:.0%}",
        ],
        title=f"Run comparison — {len(matched)} matched, {len(regressed)} regressed",
    )
    only_base = sorted(base_runs.keys() - cand_runs.keys())
    only_cand = sorted(cand_runs.keys() - base_runs.keys())
    notes = []
    if only_base:
        notes.append(f"only in baseline: {', '.join(':'.join(map(str, k)) for k in only_base)}")
    if only_cand:
        notes.append(f"only in candidate: {', '.join(':'.join(map(str, k)) for k in only_cand)}")
    if notes:
        text += "\n" + "\n".join(notes)
    return text, regressed
