"""Job model of the tuning service: specs, states, records, quotas.

A *job* is one tuning session request — the (kernel, size, tuner, budget,
seed) identity the run store is keyed by, plus the measurement knobs the CLI
already exposes. :class:`JobSpec` validates against the kernel registry and
tuner list at submission time, so a bad request is rejected before it ever
reaches the worker pool. :class:`JobRecord` is the server-side lifecycle
object (queued → running → done/failed/cancelled) that ``repro status``
serializes.

:class:`ServerQuotas` bounds what one server accepts: a per-job evaluation
budget cap, a queue-depth cap, and a wall-clock session timeout after which a
running session is cancelled. Over-quota submissions are *rejected* (the
client exits non-zero); a slow session that exceeds the timeout while running
is *cancelled* (its shard is discarded, every other session keeps going).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any

from repro.common.errors import ServiceError


class JobRejected(ServiceError):
    """The server refused a submission (invalid spec or quota violation)."""


class JobState:
    """Lifecycle states of a submitted job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    TERMINAL = (DONE, FAILED, CANCELLED)


@dataclass(frozen=True)
class JobSpec:
    """One tuning-session request: the one list of the session knobs.

    ``repro tune``, ``repro submit`` and ``repro experiment`` parse each knob
    flag into the field of the same name, and
    :class:`~repro.service.session.TuningSession` hands the spec itself to
    the tuner factory. ``fault`` is a test-only fault-injection directive
    (see :class:`repro.service.session.FaultInjector`); servers reject it
    unless explicitly configured with ``allow_fault_injection=True``.
    """

    kernel: str
    size: str
    tuner: str = "ytopt"
    max_evals: int = 100
    seed: int = 0
    #: > 1 measures in parallel waves: ytopt proposes constant-liar batches
    #: of ``jobs`` configurations, AutoTVM runs each 8-config batch on a
    #: ``jobs``-wide fleet; the virtual clock advances by the max of each
    #: wave, not the sum.
    jobs: int = 1
    #: Per-trial kernel budget in seconds; a timed-out configuration is
    #: recorded as failed and charged the budget.
    timeout: float | None = None
    #: The full per-config repeat budget. ``probe_repeats`` (when smaller)
    #: turns on multi-fidelity measurement: probe first, and promote to the
    #: full budget only when the candidate is competitive within
    #: ``promote_margin`` of the incumbent.
    repeats: int = 1
    probe_repeats: int | None = None
    promote_margin: float = 0.15
    #: BO surrogate-guided pruning: skip compiling a candidate whose lower
    #: confidence bound cannot beat ``prune_threshold`` x the incumbent.
    prune: bool = False
    prune_threshold: float = 1.25
    #: A run store (file or shard root) whose matching prior trials (same
    #: kernel, size and space hash) pre-train the BO search; they count
    #: toward the budget.
    warm_start_db: str | None = None
    #: Transfer learning: a run store (file or shard root) whose corpus fits
    #: the meta-surrogate that seeds this session (ytopt only). The session's
    #: own (kernel, size) is excluded from the fit — leave-task-out honesty.
    transfer_from: str | None = None
    #: Weight of the decaying meta-surrogate bias on acquisition scores after
    #: the seeded initial design; 0 seeds the initial design only.
    transfer_bias: float = 0.5
    #: Store/display identity override (e.g. "ytopt-transfer"): lets A/B
    #: variants of one tuner land side-by-side in a single run store without
    #: colliding on the (kernel, size, tuner, seed) identity key.
    label: str | None = None
    #: ``refit_every`` selects the surrogate refit policy (None or 1 = every
    #: observation; 0 = the geometric schedule; k = every k observations;
    #: see :func:`repro.ytopt.optimizer.refit_policy`). ``compile_jobs`` is
    #: the width of the build pool native-tier builds run in; sessions are
    #: Swing-priced, so it changes nothing they do. These knobs drive the BO
    #: loop, so AutoTVM tuners reject them.
    compile_jobs: int | None = None
    refit_every: int | None = None
    fault: dict[str, Any] | None = None

    def validate(self) -> None:
        """Raise :class:`JobRejected` unless this spec can run.

        Admission is driven by the registries (benchmarks in
        :mod:`repro.kernels.registry`, tuners in :mod:`repro.bench.registry`),
        so any registered (benchmark, tuner) pair — the paper's kernels, the
        PolyBench plugins, and user registrations alike — is submittable.
        """
        from repro.bench import registry as bench_registry
        from repro.kernels.registry import benchmark_entry, benchmark_names

        kernels = benchmark_names()
        if self.kernel not in kernels:
            raise JobRejected(
                f"unknown kernel {self.kernel!r}; known: {', '.join(kernels)}"
            )
        sizes = benchmark_entry(self.kernel).sizes
        if self.size not in sizes:
            raise JobRejected(
                f"unknown size {self.size!r} for kernel {self.kernel!r}; "
                f"known: {', '.join(sizes)}"
            )
        tuners = bench_registry.tuner_names()
        if self.tuner not in tuners:
            raise JobRejected(
                f"unknown tuner {self.tuner!r}; known: {', '.join(tuners)}"
            )
        if self.max_evals < 1:
            raise JobRejected(f"max_evals must be >= 1, got {self.max_evals}")
        if self.jobs < 1:
            raise JobRejected(f"jobs must be >= 1, got {self.jobs}")
        if self.repeats < 1:
            raise JobRejected(f"repeats must be >= 1, got {self.repeats}")
        if self.timeout is not None and self.timeout <= 0:
            raise JobRejected(f"timeout must be positive, got {self.timeout}")
        if self.probe_repeats is not None and self.probe_repeats < 1:
            raise JobRejected(
                f"probe_repeats must be >= 1, got {self.probe_repeats}"
            )
        if self.probe_repeats is not None and self.promote_margin < 0:
            raise JobRejected(
                f"promote_margin must be >= 0, got {self.promote_margin}"
            )
        if self.transfer_bias < 0:
            raise JobRejected(
                f"transfer_bias must be >= 0, got {self.transfer_bias}"
            )
        if self.transfer_from is not None and self.tuner != "ytopt":
            raise JobRejected(
                f"transfer_from only applies to the ytopt tuner, not "
                f"{self.tuner!r}"
            )
        if self.label is not None and not self.label.strip():
            raise JobRejected("label must be a non-empty string when given")
        if self.compile_jobs is not None and self.compile_jobs < 1:
            raise JobRejected(
                f"compile_jobs must be >= 1, got {self.compile_jobs}"
            )
        if self.refit_every is not None and self.refit_every < 0:
            raise JobRejected(
                f"refit_every must be >= 0, got {self.refit_every}"
            )
        family = bench_registry.get_tuner(self.tuner).family
        if family == "bo" and self.prune_threshold < 1.0:
            raise JobRejected(
                "prune_threshold must be >= 1.0 (a multiple of the incumbent), "
                f"got {self.prune_threshold}"
            )
        error = self.loop_knob_error(family)
        if error is not None:
            raise JobRejected(error)

    def loop_knob_error(self, family: str) -> str | None:
        """Why the BO-loop knobs this spec sets cannot drive a ``family``
        tuner, or None when they can (AutoTVM tuners have no such loop)."""
        knobs = [
            name
            for name, given in (
                ("compile_jobs", self.compile_jobs is not None),
                ("refit_every", self.refit_every is not None),
            )
            if given
        ]
        if knobs and family != "bo":
            return (
                f"{', '.join(knobs)} only apply to BO-family tuners, "
                f"not {self.tuner!r}"
            )
        return None

    def recorded_knobs(self) -> dict[str, Any]:
        """The :data:`RECORDED_FIELDS` of this spec, as a stored run's
        metadata holds them."""
        return {
            name: getattr(self, name) if gate is None or getattr(self, gate) else None
            for name, gate in RECORDED_FIELDS.items()
        }

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "JobSpec":
        """Build a spec from wire JSON; unknown keys are rejected."""
        fields = {f for f in cls.__dataclass_fields__}
        unknown = set(payload) - fields
        if unknown:
            raise JobRejected(f"unknown job field(s): {', '.join(sorted(unknown))}")
        if "kernel" not in payload or "size" not in payload:
            raise JobRejected("a job needs at least 'kernel' and 'size'")
        return cls(**payload)


#: The :class:`JobSpec` fields a session records under their own names in
#: its run's stored metadata. Each maps to the field that gates it (the value
#: is recorded only while the gate is set, else None) or to None when it is
#: always recorded.
RECORDED_FIELDS: dict[str, str | None] = {
    "max_evals": None,
    "jobs": None,
    "timeout": None,
    "repeats": None,
    "probe_repeats": None,
    "promote_margin": "probe_repeats",
    "prune": None,
    "prune_threshold": "prune",
    "label": None,
    "transfer_bias": "transfer_from",
    "compile_jobs": None,
    "refit_every": None,
}

#: The :class:`JobSpec` fields the run metadata does not record under their
#: own names: kernel, size, tuner (or the label) and seed are the run's
#: identity columns (seed also run_metadata's own key); warm_start_db and
#: transfer_from are recorded by what they loaded (``warm_start``: the prior
#: trial count, ``transfer``: the seed's summary); fault is test-only.
UNRECORDED_FIELDS = frozenset(
    {"kernel", "size", "tuner", "seed", "warm_start_db", "transfer_from", "fault"}
)


@dataclass
class ServerQuotas:
    """What one server is willing to accept and run.

    * ``max_evals`` — per-job evaluation budget ceiling; larger submissions
      are rejected outright.
    * ``max_queued`` — waiting-job cap; submissions beyond it are rejected
      (back-pressure instead of unbounded memory growth).
    * ``session_timeout`` — wall-clock seconds one session may run before the
      server cancels it (None = unlimited).
    """

    max_evals: int = 500
    max_queued: int = 64
    session_timeout: float | None = None

    def admit(self, spec: JobSpec, queued: int) -> None:
        """Raise :class:`JobRejected` when the submission violates a quota."""
        if spec.max_evals > self.max_evals:
            raise JobRejected(
                f"max_evals {spec.max_evals} exceeds the server quota of "
                f"{self.max_evals}"
            )
        if queued >= self.max_queued:
            raise JobRejected(
                f"queue full ({queued} jobs waiting, quota {self.max_queued})"
            )


@dataclass
class JobRecord:
    """Server-side lifecycle of one submitted job."""

    job_id: str
    spec: JobSpec
    state: str = JobState.QUEUED
    attempts: int = 0
    submitted_ts: float | None = None
    started_ts: float | None = None
    finished_ts: float | None = None
    error: str | None = None
    result: dict[str, Any] | None = None
    shard: str | None = None
    trace: str | None = None
    #: Event lines already emitted by this job's session (the watch replay
    #: buffer — every watcher sees the stream from the first event).
    events: list[str] = field(default_factory=list)

    @property
    def terminal(self) -> bool:
        return self.state in JobState.TERMINAL

    def to_dict(self) -> dict[str, Any]:
        """The ``repro status`` JSON contract (events excluded — use watch)."""
        return {
            "job_id": self.job_id,
            "spec": self.spec.to_dict(),
            "state": self.state,
            "attempts": self.attempts,
            "submitted_ts": self.submitted_ts,
            "started_ts": self.started_ts,
            "finished_ts": self.finished_ts,
            "error": self.error,
            "result": self.result,
            "shard": self.shard,
            "trace": self.trace,
            "n_events": len(self.events),
        }
