"""Tuning-as-a-service: a multi-tenant front end over the autotuning stack.

Layers, bottom-up:

* :mod:`~repro.service.session` — :class:`TuningSession`, one tuner run as a
  first-class object owning its evaluator, optimizer, telemetry, and store
  handles (the CLI's ``repro tune`` is a thin wrapper over one session);
* :mod:`~repro.service.jobs` — job specs, quotas, and lifecycle records;
* :mod:`~repro.service.shards` — per-session SQLite shards plus the
  deterministic merge into one report-ready store;
* :mod:`~repro.service.server` — the asyncio server: bounded worker pool,
  retries, quota watchdogs, and live watch streaming;
* :mod:`~repro.service.protocol` / :mod:`~repro.service.client` — the
  newline-JSON wire protocol and its synchronous client.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(
    __name__,
    {
        "client": ("ServiceClient",),
        "jobs": ("JobRecord", "JobRejected", "JobSpec", "JobState", "ServerQuotas"),
        "server": ("ServerConfig", "TuningServer"),
        "session": (
            "FaultInjector",
            "GuardedEvaluator",
            "InjectedFault",
            "SessionCancelled",
            "TunerRun",
            "TuningSession",
            "make_evaluator",
        ),
        "shards": ("ShardedRunStore",),
    },
)
