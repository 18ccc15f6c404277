"""The performance database of the proposed framework (Fig. 3, Step 5).

Every evaluation — configuration, measured runtime, compile time, the process
clock at completion, and any error — is appended as an
:class:`EvaluationRecord`. The database answers the queries the paper's
analysis needs (best configuration, evaluation trajectory over process time)
and round-trips to CSV for archival.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

from repro.common.errors import TuningError
from repro.runtime.measure import MeasureResult


@dataclass(frozen=True)
class EvaluationRecord:
    """One row of the performance database."""

    index: int
    config: dict[str, int]
    runtime: float  # mean kernel runtime (seconds); FAILED_COST on error
    compile_time: float
    elapsed: float  # process time when the evaluation finished
    tuner: str
    error: str | None = None
    fidelity: str = "full"  # "full" | "promoted" | "probe" | "pruned"

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def low_fidelity(self) -> bool:
        """True when ``runtime`` is an estimate, not a full-budget measurement."""
        return self.fidelity in ("probe", "pruned")


class PerformanceDatabase:
    """Append-only store of evaluation records."""

    def __init__(self, name: str = "perfdb") -> None:
        self.name = name
        self._records: list[EvaluationRecord] = []

    # -- writing ------------------------------------------------------------

    def add(self, result: MeasureResult, tuner: str) -> EvaluationRecord:
        rec = EvaluationRecord(
            index=len(self._records),
            config=dict(result.config),
            runtime=result.mean_cost,
            compile_time=result.compile_time,
            elapsed=result.timestamp,
            tuner=tuner,
            error=result.error,
            fidelity=result.fidelity,
        )
        self._records.append(rec)
        return rec

    def extend(self, records: "Iterator[EvaluationRecord] | list[EvaluationRecord]") -> None:
        """Append existing records (search resumption); indices are rewritten."""
        for rec in records:
            self._records.append(
                EvaluationRecord(
                    index=len(self._records),
                    config=dict(rec.config),
                    runtime=rec.runtime,
                    compile_time=rec.compile_time,
                    elapsed=rec.elapsed,
                    tuner=rec.tuner,
                    error=rec.error,
                    fidelity=rec.fidelity,
                )
            )

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[EvaluationRecord]:
        return iter(self._records)

    def records(self) -> list[EvaluationRecord]:
        return list(self._records)

    def best(self) -> EvaluationRecord:
        """The record with the smallest successful runtime."""
        ok = [r for r in self._records if r.ok]
        if not ok:
            raise TuningError(f"database {self.name!r} has no successful evaluations")
        return min(ok, key=lambda r: r.runtime)

    def trajectory(self) -> list[tuple[float, float]]:
        """(elapsed process time, runtime) per evaluation — the paper's
        'autotuning process over time' series. A failed evaluation's runtime
        is ``inf``, for every tuner (payloads write it as ``null``)."""
        return [(r.elapsed, r.runtime if r.ok else math.inf) for r in self._records]

    def best_so_far(self) -> list[float]:
        """Running minimum of successful runtimes (inf until the first success)."""
        out: list[float] = []
        cur = float("inf")
        for r in self._records:
            if r.ok and r.runtime < cur:
                cur = r.runtime
            out.append(cur)
        return out

    def total_elapsed(self) -> float:
        """Process time of the full run (the paper's 'autotuning process time')."""
        return self._records[-1].elapsed if self._records else 0.0

    # -- persistence ------------------------------------------------------------

    _FIELDS = (
        "index",
        "tuner",
        "runtime",
        "compile_time",
        "elapsed",
        "error",
        "fidelity",
        "config",
    )

    def to_csv(self, path: "str | Path") -> None:
        with open(path, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=self._FIELDS)
            w.writeheader()
            for r in self._records:
                w.writerow(
                    {
                        "index": r.index,
                        "tuner": r.tuner,
                        "runtime": r.runtime,
                        "compile_time": r.compile_time,
                        "elapsed": r.elapsed,
                        "error": r.error or "",
                        "fidelity": r.fidelity,
                        "config": json.dumps(r.config, sort_keys=True),
                    }
                )

    @classmethod
    def from_csv(cls, path: "str | Path", name: str = "perfdb") -> "PerformanceDatabase":
        db = cls(name)
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                db._records.append(
                    EvaluationRecord(
                        index=int(row["index"]),
                        config={k: int(v) for k, v in json.loads(row["config"]).items()},
                        runtime=float(row["runtime"]),
                        compile_time=float(row["compile_time"]),
                        elapsed=float(row["elapsed"]),
                        tuner=row["tuner"],
                        error=row["error"] or None,
                        # pre-fidelity CSVs have no column: default to "full"
                        fidelity=row.get("fidelity") or "full",
                    )
                )
        return db
