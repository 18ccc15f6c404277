"""TuningServer battery: concurrency determinism, fault containment, quotas.

Everything here drives the server in-process (no TCP) through its async API;
the wire protocol and CLI get their own tests in ``test_cli_service.py``.
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path

import pytest

from repro.common.errors import ServiceError
from repro.service import (
    JobRejected,
    JobSpec,
    ServerConfig,
    ServerQuotas,
    ServiceClient,
    TuningServer,
    TuningSession,
)
from repro.telemetry import RunStore
from repro.telemetry.report import report_text


def run_with_server(body, **config_kw):
    """Boot a server (no TCP unless asked), run ``body(server)``, stop it."""
    serve_tcp = config_kw.pop("serve_tcp", False)
    stop_kw = config_kw.pop("stop_kw", {})

    async def main():
        server = TuningServer(ServerConfig(**config_kw))
        await server.start(serve_tcp=serve_tcp)
        try:
            return await body(server)
        finally:
            await server.stop(**stop_kw)

    return asyncio.run(main())


def serial_payload(**spec_kw) -> dict:
    """What one serial (non-service) session produces for this spec."""
    return TuningSession(JobSpec(**spec_kw)).run().to_payload()


# The acceptance grid: 2 kernels x 2 sizes x 2 seeds, small budgets.
GRID = [
    dict(kernel=kernel, size=size, tuner="ytopt", max_evals=5, seed=seed)
    for kernel in ("lu", "3mm")
    for size in ("large", "extralarge")
    for seed in (0, 1)
]


class TestConcurrentDeterminism:
    def test_eight_concurrent_sessions_match_serial(self, tmp_path):
        """8 sessions racing on 4 workers produce byte-identical results to
        the same specs run serially — and the merged store's report matches
        the serial single-DB golden."""
        serial_db = tmp_path / "serial.sqlite"
        serial = [
            json.dumps(
                TuningSession(JobSpec(**spec), store_path=str(serial_db))
                .run()
                .to_payload(),
                sort_keys=True,
            )
            for spec in GRID
        ]
        with RunStore(serial_db) as store:
            golden_report = report_text(store)

        async def body(server):
            jobs = [server.submit(spec) for spec in GRID]
            finals = await asyncio.gather(
                *(server.wait_terminal(j.job_id) for j in jobs)
            )
            return finals

        root = tmp_path / "service"
        finals = run_with_server(body, root=root, workers=4)

        assert [j.state for j in finals] == ["done"] * 8
        concurrent = [json.dumps(j.result, sort_keys=True) for j in finals]
        assert concurrent == serial

        merged = root / "merged.sqlite"  # written by server.stop()
        with RunStore(merged) as store:
            assert len(store.runs()) == 8
            assert report_text(store) == golden_report

    def test_jobs_actually_overlap(self, tmp_path):
        """With 4 workers, at least two sessions must be in flight at once
        (slow-fault sessions so the overlap window is observable)."""

        async def body(server):
            jobs = [
                server.submit(dict(kernel="lu", size="large", max_evals=4,
                                   seed=seed,
                                   fault={"mode": "slow", "per_eval": 0.05}))
                for seed in range(4)
            ]
            peak = 0
            while not all(server.jobs[j.job_id].terminal for j in jobs):
                peak = max(peak, len(server._sessions))
                await asyncio.sleep(0.005)
            return peak

        peak = run_with_server(body, root=tmp_path, workers=4,
                               allow_fault_injection=True)
        assert peak >= 2


class TestFaultContainment:
    def test_crashed_worker_is_retried(self, tmp_path):
        clean = json.dumps(
            serial_payload(kernel="lu", size="large", max_evals=5, seed=0),
            sort_keys=True,
        )

        async def body(server):
            job = server.submit(
                dict(kernel="lu", size="large", max_evals=5, seed=0,
                     fault={"mode": "crash", "at_eval": 2, "attempts": 1})
            )
            return await server.wait_terminal(job.job_id)

        final = run_with_server(
            body, root=tmp_path, workers=2, retries=1,
            allow_fault_injection=True,
        )
        assert final.state == "done"
        assert final.attempts == 2  # crashed once, clean on retry
        assert json.dumps(final.result, sort_keys=True) == clean
        with RunStore(tmp_path / "merged.sqlite") as store:
            assert len(store.runs()) == 1

    def test_persistent_crash_fails_job_but_not_server(self, tmp_path):
        async def body(server):
            doomed = server.submit(
                dict(kernel="lu", size="large", max_evals=5, seed=0,
                     fault={"mode": "crash", "at_eval": 1, "attempts": 99})
            )
            healthy = server.submit(
                dict(kernel="3mm", size="large", max_evals=5, seed=0)
            )
            doomed_final = await server.wait_terminal(doomed.job_id)
            healthy_final = await server.wait_terminal(healthy.job_id)
            # the server keeps serving after the failure
            late = server.submit(
                dict(kernel="lu", size="large", max_evals=4, seed=7)
            )
            late_final = await server.wait_terminal(late.job_id)
            return doomed_final, healthy_final, late_final

        doomed, healthy, late = run_with_server(
            body, root=tmp_path, workers=2, retries=1,
            allow_fault_injection=True,
        )
        assert doomed.state == "failed"
        assert "all 2 attempt(s)" in doomed.error
        assert doomed.shard is None  # discarded, never merged
        assert healthy.state == "done"
        assert late.state == "done"
        with RunStore(tmp_path / "merged.sqlite") as store:
            ids = {r.run_id for r in store.runs()}
        assert ids == {"3mm:large:ytopt:seed0", "lu:large:ytopt:seed7"}

    def test_slow_session_hits_quota_others_survive(self, tmp_path):
        """A stalling session is cancelled by the wall-clock watchdog; the
        concurrent healthy session is untouched."""
        clean = json.dumps(
            serial_payload(kernel="3mm", size="large", max_evals=5, seed=0),
            sort_keys=True,
        )

        async def body(server):
            slow = server.submit(
                dict(kernel="lu", size="large", max_evals=200, seed=0,
                     fault={"mode": "slow", "per_eval": 0.2})
            )
            healthy = server.submit(
                dict(kernel="3mm", size="large", max_evals=5, seed=0)
            )
            return (
                await server.wait_terminal(slow.job_id),
                await server.wait_terminal(healthy.job_id),
            )

        slow, healthy = run_with_server(
            body, root=tmp_path, workers=2,
            quotas=ServerQuotas(max_evals=500, session_timeout=0.6),
            allow_fault_injection=True,
        )
        assert slow.state == "cancelled"
        assert "quota" in slow.error
        assert slow.shard is None
        assert healthy.state == "done"
        assert json.dumps(healthy.result, sort_keys=True) == clean
        with RunStore(tmp_path / "merged.sqlite") as store:
            assert {r.run_id for r in store.runs()} == {"3mm:large:ytopt:seed0"}

    def test_crashed_sink_is_quarantined(self, tmp_path):
        async def body(server):
            job = server.submit(
                dict(kernel="lu", size="large", max_evals=5, seed=0,
                     fault={"mode": "sink"})
            )
            return await server.wait_terminal(job.job_id)

        final = run_with_server(
            body, root=tmp_path, workers=1, allow_fault_injection=True
        )
        assert final.state == "done"
        with RunStore(tmp_path / "merged.sqlite") as store:
            assert len(store.runs()) == 1


class TestQuotasAndRejection:
    def test_over_budget_submission_rejected(self, tmp_path):
        async def body(server):
            with pytest.raises(JobRejected, match="quota"):
                server.submit(dict(kernel="lu", size="large", max_evals=999))
            return server.status()

        status = run_with_server(
            body, root=tmp_path, quotas=ServerQuotas(max_evals=50)
        )
        assert status["jobs"] == []  # never entered the queue

    def test_queue_depth_cap(self, tmp_path):
        async def body(server):
            # submit without yielding to the workers -> the queue fills up
            for seed in range(2):
                server.submit(
                    dict(kernel="lu", size="large", max_evals=50, seed=seed,
                         fault={"mode": "slow", "per_eval": 0.05})
                )
            with pytest.raises(JobRejected, match="queue"):
                server.submit(dict(kernel="lu", size="large", max_evals=5,
                                   seed=99))

        run_with_server(
            body, root=tmp_path, workers=1,
            quotas=ServerQuotas(max_queued=2), allow_fault_injection=True,
            stop_kw=dict(drain=False),
        )

    def test_malformed_spec_rejected(self, tmp_path):
        async def body(server):
            with pytest.raises(JobRejected):
                server.submit(dict(kernel="nope", size="large"))
            with pytest.raises(JobRejected):
                server.submit(dict(kernel="lu", size="large", bogus=1))
            # Values a session refuses at construction are refused here.
            for bad in (
                dict(timeout=0.0),
                dict(timeout=-1.0),
                dict(prune_threshold=0.5),
                dict(probe_repeats=1, promote_margin=-1.0),
            ):
                with pytest.raises(JobRejected):
                    server.submit(dict(kernel="lu", size="large", **bad))

        run_with_server(body, root=tmp_path)

    def test_fault_injection_gated_by_default(self, tmp_path):
        async def body(server):
            with pytest.raises(JobRejected, match="fault injection"):
                server.submit(dict(kernel="lu", size="large", max_evals=5,
                                   fault={"mode": "crash"}))

        run_with_server(body, root=tmp_path)

    def test_unknown_job_id(self, tmp_path):
        async def body(server):
            with pytest.raises(ServiceError, match="unknown job"):
                server.status("job-9999-nope")

        run_with_server(body, root=tmp_path)


class TestWatchStreaming:
    def test_late_watcher_replays_full_stream(self, tmp_path):
        """A watcher attaching after completion still sees every event, and
        the stream is byte-identical to the session's JSONL trace."""

        async def body(server):
            job = server.submit(dict(kernel="lu", size="large", max_evals=5,
                                     seed=0))
            final = await server.wait_terminal(job.job_id)
            lines = [line async for line in server.watch(job.job_id)]
            return final, lines

        final, lines = run_with_server(body, root=tmp_path, workers=1)
        trace = Path(final.trace).read_text().splitlines()
        assert lines == trace
        assert json.loads(lines[0])["event"] == "run_started"
        assert json.loads(lines[-1])["event"] == "run_finished"

    def test_live_watcher_sees_same_stream_as_late_watcher(self, tmp_path):
        async def body(server):
            job = server.submit(dict(kernel="lu", size="large", max_evals=5,
                                     seed=0))
            live = [line async for line in server.watch(job.job_id)]
            replay = [line async for line in server.watch(job.job_id)]
            return live, replay

        live, replay = run_with_server(body, root=tmp_path, workers=1)
        assert live == replay


class TestShutdownAndTcp:
    def test_shutdown_merges_and_removes_address_file(self, tmp_path):
        async def body(server):
            host, port = server.address
            assert (Path(tmp_path) / "server.json").exists()
            job = server.submit(dict(kernel="lu", size="large", max_evals=4,
                                     seed=0))
            await server.wait_terminal(job.job_id)
            return host, port

        run_with_server(body, root=tmp_path, serve_tcp=True)
        assert not (Path(tmp_path) / "server.json").exists()
        assert (Path(tmp_path) / "merged.sqlite").exists()

    def test_tcp_round_trip(self, tmp_path):
        """ping / submit / status / watch / merge over the real socket."""

        async def body(server):
            host, port = server.address

            def client_side():
                client = ServiceClient(host, port)
                assert client.ping()
                record = client.submit(
                    dict(kernel="lu", size="large", max_evals=4, seed=0)
                )
                assert record["state"] == "queued"
                items = list(client.watch(record["job_id"]))
                final = items[-1]
                lines = items[:-1]
                assert final["state"] == "done"
                trace = Path(final["trace"]).read_text().splitlines()
                assert lines == trace
                status = client.status(record["job_id"])["job"]
                assert status["state"] == "done"
                merged = client.merge()
                assert merged["runs"] == 1
                with pytest.raises(JobRejected):
                    client.submit(dict(kernel="lu", size="large",
                                       max_evals=10_000))
                return final

            return await asyncio.to_thread(client_side)

        final = run_with_server(body, root=tmp_path, serve_tcp=True)
        assert final["result"]["n_evals"] == 4
