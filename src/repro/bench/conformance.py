"""The cross-product conformance battery: every benchmark × every tuner.

CATBench-style evaluation methodology, applied to the whole registry: each
registered (benchmark, tuner) pair runs on a fixed *quick preset* (mini
problem size, small evaluation budget, pinned seed) through the full service
path — :class:`~repro.service.session.TuningSession` with its own evaluator,
virtual clock, and (optionally) a run store — and the battery asserts the
invariants the paper's tables depend on:

* **determinism** — the same (pair, seed) twice yields byte-identical
  trajectories (:func:`trajectory_json` canonicalizes for comparison);
* **space-hash stability** — a pair's search space hashes the same across
  runs and across hyperparameter declaration orders;
* **budget accounting** — every charged row (measured, pruned, probe) counts
  against ``max_evals``, so ``n_evals`` equals the budget exactly;
* **report regeneration** — tables rebuilt from the run store are a pure
  function of the store bytes.

``python -m repro.bench.conformance`` (or the ``bench-conformance`` CI job)
runs the full grid and writes a markdown report artifact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from repro.bench.registry import tuner_names
from repro.kernels.registry import benchmark_names
from repro.service.jobs import JobSpec
from repro.service.session import TunerRun, TuningSession


@dataclass(frozen=True)
class ConformancePreset:
    """One battery configuration (small enough for CI, big enough to search).

    ``max_evals=12`` deliberately exceeds the BO families' initial design
    (10 random points), so every surrogate is actually fitted and asked.
    """

    size: str = "mini"
    max_evals: int = 12
    seed: int = 0
    repeats: int = 1
    prune: bool = False
    prune_threshold: float = 1.25
    probe_repeats: "int | None" = None


QUICK = ConformancePreset()


def run_pair(
    kernel: str,
    tuner: str,
    preset: ConformancePreset = QUICK,
    store_path: "str | None" = None,
) -> TunerRun:
    """Run one (benchmark, tuner) pair end-to-end through the service path."""
    spec = JobSpec(
        kernel=kernel,
        size=preset.size,
        tuner=tuner,
        max_evals=preset.max_evals,
        seed=preset.seed,
        repeats=preset.repeats,
        prune=preset.prune,
        prune_threshold=preset.prune_threshold,
        probe_repeats=preset.probe_repeats,
    )
    spec.validate()
    session = TuningSession(spec, store_path=store_path)
    return session.run()


def trajectory_json(run: TunerRun) -> str:
    """Canonical JSON of a run's full trajectory (golden/determinism format)."""
    return json.dumps(run.to_payload(), sort_keys=True, separators=(",", ":"))


def battery_pairs() -> list[tuple[str, str]]:
    """The full grid: every registered kernel × every registered tuner."""
    return [
        (kernel, tuner)
        for kernel in benchmark_names()
        for tuner in tuner_names()
    ]


def run_battery(
    preset: ConformancePreset = QUICK,
    store_dir: "str | Path | None" = None,
    pairs: "list[tuple[str, str]] | None" = None,
) -> list[TunerRun]:
    """Run the battery; one store shard per pair when ``store_dir`` is given."""
    runs: list[TunerRun] = []
    for kernel, tuner in pairs if pairs is not None else battery_pairs():
        store_path = None
        if store_dir is not None:
            store_path = str(Path(store_dir) / f"{kernel}-{tuner}.db")
        runs.append(run_pair(kernel, tuner, preset, store_path=store_path))
    return runs


def battery_report(runs: list[TunerRun], preset: ConformancePreset = QUICK) -> str:
    """Markdown table of the battery (the CI artifact)."""
    lines = [
        f"# bench conformance battery — size={preset.size}, "
        f"max_evals={preset.max_evals}, seed={preset.seed}",
        "",
        "| kernel | tuner | best runtime (s) | evals | process time (s) |",
        "|---|---|---:|---:|---:|",
    ]
    for run in runs:
        lines.append(
            f"| {run.kernel} | {run.tuner} | {run.best_runtime:.6g} "
            f"| {run.n_evals} | {run.total_time:.6g} |"
        )
    grid = {(r.kernel, r.tuner) for r in runs}
    lines += [
        "",
        f"{len(runs)} runs over {len({k for k, _ in grid})} benchmarks × "
        f"{len({t for _, t in grid})} tuners.",
    ]
    return "\n".join(lines) + "\n"


def main(argv: "list[str] | None" = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro-bench-conformance",
        description="Run the benchmark × tuner conformance battery.",
    )
    parser.add_argument("--size", default=QUICK.size)
    parser.add_argument("--max-evals", type=int, default=QUICK.max_evals)
    parser.add_argument("--seed", type=int, default=QUICK.seed)
    parser.add_argument("--report", default=None, help="write the markdown report here")
    parser.add_argument("--store-dir", default=None, help="write per-pair store shards here")
    args = parser.parse_args(argv)
    preset = replace(QUICK, size=args.size, max_evals=args.max_evals, seed=args.seed)
    runs = run_battery(preset, store_dir=args.store_dir)
    report = battery_report(runs, preset)
    if args.report:
        Path(args.report).parent.mkdir(parents=True, exist_ok=True)
        Path(args.report).write_text(report)
    print(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
