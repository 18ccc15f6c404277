"""Tests of the e2e benchmark harness (run with ``pytest benchmarks/e2e``).

The smoke runs build real kernels on the native tier, so they need a C
compiler; they take about half a minute together.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import layer_trace
import run
from workloads import END_TO_END, PER_LAYER, REFERENCES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")


def _run(*args: str, cwd: Path = ROOT, timeout: float = 60) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks/e2e/run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One smoke run of all three workloads with a traced rep each."""
    out = tmp_path_factory.mktemp("smoke")
    proc = _run("--preset", "smoke", "--reps", "1", "--trace",
                "--json", str(out / "doc.json"), "--trace-out", str(out / "trace.json"))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads((out / "doc.json").read_text()), json.loads((out / "trace.json").read_text())


def test_benchmark_json_matches_metric_tables():
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(metric["name"]), metric
    for metric in SPEC["end_to_end"]:
        assert END_TO_END[metric["name"]] == (metric["unit"], metric["better"])
    for metric in SPEC["per_layer"]:
        assert PER_LAYER[metric["name"]] == (metric["unit"], metric["better"])
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@needs_cc
def test_smoke_reports_every_benchmark_metric(smoke):
    doc, _ = smoke
    assert doc["claim"] is None
    assert set(doc["workloads"]) == set(WORKLOADS)
    for name, summary in doc["workloads"].items():
        assert summary["failures"] == [], name
        for metric in SPEC["end_to_end"]:
            assert summary["end_to_end"][metric["name"]]["unit"] == metric["unit"]
        for metric in SPEC["per_layer"]:
            assert summary["per_layer"][metric["name"]] is not None, (name, metric)
        assert summary["end_to_end"]["output_ok_frac"]["median"] == 1.0
        assert summary["end_to_end"]["failed_trial_frac"]["median"] == 0.0


@needs_cc
def test_traced_self_time_fits_in_each_thread(smoke):
    doc, trace = smoke
    for name, summary in doc["workloads"].items():
        for thread, entry in summary["threads"].items():
            assert entry["self_s"] <= entry["wall_s"] + 1e-9, (name, thread, entry)
    pipelined = doc["workloads"]["3mm-native-pipelined"]["threads"]
    assert any(t.startswith("repro-build") for t in pipelined)
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert spans and {e["pid"] for e in spans} == {1, 2, 3}
    assert all(isinstance(e["tid"], int) and e["dur"] >= 0 for e in spans)


@needs_cc
@pytest.mark.parametrize(
    "workload,trace",
    [("lu-native", "0"), ("lu-swing-session", "1"), ("3mm-native-pipelined", "1")],
)
def test_timed_mode_line_matches_benchmark_json(workload, trace):
    proc = _run("--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", trace, "--preset", "smoke")
    assert proc.returncode == 0, proc.stderr[-3000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        got = line["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks/e2e", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "lu-native", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("kernel", sorted(REFERENCES))
def test_reference_check_rejects_wrong_output(kernel):
    rng = np.random.default_rng(0)
    if kernel == "lu":
        l21, u12, trail = (rng.standard_normal(s) for s in ((5, 3), (3, 4), (5, 4)))
        buffers = [l21, u12, trail, trail - l21 @ u12]
    else:
        a, b, c, d = (rng.standard_normal(s) for s in ((4, 5), (5, 6), (6, 7), (7, 3)))
        buffers = [a, b, c, d, (a @ b) @ (c @ d)]
    assert REFERENCES[kernel](buffers) is None
    buffers[-1] = buffers[-1].copy()
    buffers[-1][1, 2] += 1e-6
    assert "exceeds" in REFERENCES[kernel](buffers)


def _rep(**changes) -> dict:
    rep = {
        "evals": 6, "seed": 0, "traced": False, "best_config": {"P0": 1}, "best_runtime_s": 1.0,
        "search": {"trials": 6, "failed": 0, "evals_to_5pct": 3},
        "check": {"backend": "native", "error": None},
    }
    for key, value in changes.items():
        if isinstance(value, dict):
            rep[key] = dict(rep[key], **value)
        else:
            rep[key] = value
    return rep


def test_gates_catch_short_runs_wrong_tier_wrong_output_and_drift():
    assert run.gate_failures("lu-native", [_rep(), _rep()]) == []
    failures = run.gate_failures("lu-native", [
        _rep(search={"trials": 5}),
        _rep(check={"backend": "tensor"}),
        _rep(check={"error": "lu: max |error| 1 exceeds rtol=atol=1e-10"}),
    ])
    assert len(failures) == 3
    assert "5 trials of a 6-eval budget" in failures[0]
    assert "'tensor' tier" in failures[1]
    assert "output wrong" in failures[2]
    drift = run.gate_failures("lu-swing-session", [_rep(), _rep(best_runtime_s=1.1)])
    assert len(drift) == 1 and "different trajectories" in drift[0]


def test_compare_verdicts():
    base = [10.0, 10.2, 10.1]
    assert run.verdict(base, [10.1, 10.3, 10.0], 0.1, "lower") == "same"
    assert run.verdict(base, [12.0, 12.1, 12.2], 0.1, "lower") == "worse"
    assert run.verdict(base, [8.0, 8.1, 8.2], 0.1, "lower") == "better"
    assert run.verdict(base, [10.0, 14.0, 10.1], 0.1, "lower") == "unresolved"
    # A wide spread is resolved when every NEW run beats every BASE run.
    assert run.verdict([10.0, 14.0, 10.1], [5.0, 6.0, 5.5], 0.1, "lower") == "better"
    assert run.verdict([1.0], [1.0], 0.0, "higher") == "same"
    assert run.verdict([1.0], [0.5], 0.0, "higher") == "worse"


def test_rollup_nests_spans_per_thread():
    recorder = layer_trace.Recorder()
    inner = recorder.wrap("inner", lambda: sum(range(20000)))
    outer = recorder.wrap("outer", lambda: [inner() for _ in range(3)])
    recursive = recorder.wrap("outer", lambda: outer())
    barrier = threading.Barrier(2)

    def work():
        barrier.wait(timeout=10)
        recursive()

    worker = threading.Thread(target=work, name="worker")
    worker.start()
    barrier.wait(timeout=10)
    outer()
    worker.join(timeout=10)
    assert not worker.is_alive()

    layers, threads = layer_trace.rollup(recorder.spans)
    # The worker's nested "outer" counts once; inner spans nest per thread.
    assert layers["outer"]["calls"] == 2
    assert layers["inner"]["calls"] == 6
    by_id = {s[layer_trace.ID]: s for s in recorder.spans}
    for span in recorder.spans:
        parent = by_id.get(span[layer_trace.PARENT])
        if parent is not None:
            assert parent[layer_trace.TID] == span[layer_trace.TID]
    assert set(threads) == set(recorder.thread_names)
    for entry in threads.values():
        assert 0 <= entry["self_s"] <= entry["wall_s"] + 1e-9
    events = layer_trace.chrome_events(recorder.spans, recorder.thread_names, 0.0)
    assert sum(e["ph"] == "X" for e in events) == len(recorder.spans)
    assert {e["tid"] for e in events if e["ph"] == "X"} == {1, 2}
