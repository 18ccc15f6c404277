"""Warm-start ytopt from prior runs archived in the telemetry run store.

Mirrors the AutoTVM tuner's ``warm_start``: before the search begins, prior
(configuration, runtime) pairs pre-train the Random-Forest surrogate and seed
the performance database, so the optimizer starts from the model it ended the
last campaign with instead of a cold random design.

Matching is strict — a stored run is usable only when its kernel, problem
size, and *space hash* (:func:`repro.configspace.space_hash`) all agree with
the current problem. The space hash guards against silently reusing trials
from a differently-shaped search space (changed tiling candidates, renamed
parameters), which would poison the surrogate.

Warm-started records **count toward the evaluation budget**: a warm start
whose record count meets ``max_evals`` replays the stored result without
measuring anything new. Rows with fidelity ``"pruned"``
are skipped — they carry surrogate estimates, not measurements, and feeding
them back would let one run's guesses masquerade as the next run's data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.common.errors import ReproError
from repro.configspace import ConfigurationSpace, space_hash
from repro.ytopt.database import EvaluationRecord, PerformanceDatabase


@dataclass
class WarmStart:
    """Prior trials loaded from a run store for one (kernel, size, space).

    ``database`` holds the deduplicated records ready to hand to
    :class:`~repro.ytopt.search.AMBS` via its ``warm_start`` parameter;
    the counters say what was found and what was rejected.
    """

    kernel: str
    size_name: str
    database: PerformanceDatabase
    matched_runs: int = 0
    skipped_runs: int = 0  # space-hash or identity mismatch
    skipped_records: int = 0  # pruned / duplicate rows dropped
    source: str = ""
    run_ids: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.database)

    @classmethod
    def from_store(
        cls,
        store_path: "str | Path",
        kernel: str,
        size_name: str,
        space: ConfigurationSpace,
        tuner: str | None = "ytopt",
        max_records: int | None = None,
    ) -> "WarmStart":
        """Load every matching prior trial archived at ``store_path``.

        ``store_path`` may be a single SQLite store or a service shard root
        (the :class:`~repro.service.shards.ShardedRunStore` layout):
        directories resolve through
        :func:`repro.telemetry.store.resolve_store_paths` to the merged store
        plus any un-compacted shard DBs, read merge-on-read style with run_id
        deduplication — no offline ``repro merge`` required first.

        ``tuner`` restricts which runs are trusted (default: only prior ytopt
        runs — pass None to accept any tuner's measurements). ``max_records``
        caps how many records are kept (earliest runs first), so a huge
        archive cannot swamp the surrogate.
        """
        from repro.telemetry.store import RunStore, resolve_store_paths

        path = Path(store_path)
        if not path.exists():
            raise ReproError(f"warm-start store not found: {path}")
        expected_hash = space_hash(space)
        db = PerformanceDatabase(name=f"{kernel}:{size_name}:warmstart")
        ws = cls(
            kernel=kernel, size_name=size_name, database=db, source=str(path)
        )
        seen: set[tuple] = set()
        seen_runs: set[str] = set()
        for store_file in resolve_store_paths(path):
            with RunStore(store_file) as store:
                for run in store.runs(kernel=kernel, size_name=size_name, tuner=tuner):
                    if run.run_id in seen_runs:
                        continue  # merged store + leftover shard: same run
                    seen_runs.add(run.run_id)
                    stored_hash = run.metadata.get("space_hash")
                    if stored_hash != expected_hash:
                        ws.skipped_runs += 1
                        continue
                    ws.matched_runs += 1
                    ws.run_ids.append(run.run_id)
                    for ev in store.evaluations(run.run_id):
                        key = tuple(sorted(ev.config.items()))
                        if ev.fidelity == "pruned" or key in seen:
                            ws.skipped_records += 1
                            continue
                        if max_records is not None and len(db) >= max_records:
                            ws.skipped_records += 1
                            continue
                        seen.add(key)
                        db._records.append(
                            EvaluationRecord(
                                index=len(db),
                                config=dict(ev.config),
                                runtime=ev.runtime,
                                compile_time=ev.compile_time,
                                elapsed=ev.elapsed,
                                tuner=run.tuner,
                                error=ev.error,
                                fidelity=ev.fidelity,
                            )
                        )
        return ws
