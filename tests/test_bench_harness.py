"""Smoke tests for the perf-regression harness and its CI gate.

The full harness run is exercised by CI's perf-smoke job; here we keep the
pieces importable and correct — one tiny timed case, the tier-coverage
probe, and the ``bench_to_json.check`` regression logic on synthetic
documents (no timing involved, so the assertions are exact).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
for sub in ("benchmarks", "scripts"):
    p = str(REPO_ROOT / sub)
    if p not in sys.path:
        sys.path.insert(0, p)

import bench_backend_tiers  # noqa: E402
import bench_to_json  # noqa: E402


class TestHarness:
    def test_bench_case_reports_all_tiers(self):
        from repro.kernels.extra import gemm_tuned

        sched, args = gemm_tuned(12, 10, 8, {"P0": 4, "P1": 4})
        out = bench_backend_tiers.bench_case(
            "gemm-tiny", sched, args, ("tensor", "codegen", "interp"), repeats=1
        )
        assert set(out["tiers"]) == {"tensor", "codegen", "interp"}
        assert out["tiers"]["tensor"]["selected"] == "tensor"
        assert out["speedup_tensor_vs_interp"] > 0
        assert out["speedup_tensor_vs_codegen"] > 0

    def test_tier_coverage_covers_all_registered(self):
        from repro.kernels.registry import list_benchmarks

        cov = bench_backend_tiers.tier_coverage()
        assert set(cov["selected"]) == {f"{k}/{s}" for k, s in list_benchmarks()}
        assert 0.0 <= cov["coverage"] <= 1.0
        assert 0.0 <= cov["tensor_fraction"] <= cov["coverage"]

    def test_default_config_is_legal(self):
        from repro.kernels.registry import get_benchmark

        bench = get_benchmark("lu", "large")
        cfg = bench_backend_tiers.default_config(bench)
        assert set(cfg) == set(bench.params)
        for p, v in cfg.items():
            assert v in bench.candidates[p]


def _baseline_doc():
    return {
        "cases": [
            {
                "name": "gemm-48",
                "speedup_tensor_vs_interp": 100.0,
                "speedup_tensor_vs_codegen": 10.0,
            }
        ],
        "coverage": {"coverage": 1.0, "tensor_fraction": 1.0},
    }


def _fresh_doc(interp=100.0, codegen=10.0, coverage=1.0):
    doc = _baseline_doc()
    doc["cases"][0]["speedup_tensor_vs_interp"] = interp
    doc["cases"][0]["speedup_tensor_vs_codegen"] = codegen
    doc["coverage"]["coverage"] = coverage
    doc["coverage"]["tensor_fraction"] = coverage
    return doc


class TestCheckGate:
    SEARCH_OK = {
        "batch_sampling_speedup": 4.0,
        "ask_loop_rf_ms_per_eval": 40.0,
        "ask_overhead_ms_per_eval": 4.0,
    }

    @pytest.fixture
    def baseline(self, tmp_path, monkeypatch):
        path = tmp_path / "BENCH_compiler.json"
        path.write_text(json.dumps(_baseline_doc()))
        monkeypatch.setattr(bench_to_json, "COMPILER_JSON", path)
        search = tmp_path / "BENCH_search.json"
        search.write_text(json.dumps(self.SEARCH_OK))
        monkeypatch.setattr(bench_to_json, "SEARCH_JSON", search)
        return path

    def test_surrogate_ratio_within_ceiling_passes(self, baseline):
        # 10x baseline; the ceiling is 10 / 0.8 = 12.5x.
        search = dict(self.SEARCH_OK, ask_loop_rf_ms_per_eval=50.0)
        assert bench_to_json.check(_fresh_doc(), search) == []

    def test_surrogate_ratio_is_machine_independent(self, baseline):
        # A uniformly 3x slower machine keeps the ratio: no failure.
        search = dict(self.SEARCH_OK, ask_loop_rf_ms_per_eval=120.0,
                      ask_overhead_ms_per_eval=12.0)
        assert bench_to_json.check(_fresh_doc(), search) == []

    def test_fails_when_surrogate_regresses(self, baseline):
        search = dict(self.SEARCH_OK, ask_loop_rf_ms_per_eval=51.0)
        failures = bench_to_json.check(_fresh_doc(), search)
        assert any("RF ask loop regressed" in f for f in failures)

    def test_passes_at_parity(self, baseline):
        assert bench_to_json.check(_fresh_doc(), self.SEARCH_OK) == []

    def test_passes_within_floor(self, baseline):
        # 20% slower than baseline is exactly the allowed floor.
        assert bench_to_json.check(_fresh_doc(interp=80.0), self.SEARCH_OK) == []

    def test_fails_below_floor(self, baseline):
        failures = bench_to_json.check(_fresh_doc(interp=79.0), self.SEARCH_OK)
        assert any("speedup_tensor_vs_interp regressed" in f for f in failures)

    def test_fails_on_coverage_drop(self, baseline):
        failures = bench_to_json.check(_fresh_doc(coverage=0.5), self.SEARCH_OK)
        assert any("coverage dropped" in f for f in failures)

    def test_fails_on_missing_case(self, baseline):
        doc = _fresh_doc()
        doc["cases"] = []
        failures = bench_to_json.check(doc, self.SEARCH_OK)
        assert any("present in baseline" in f for f in failures)

    def test_fails_when_batching_loses(self, baseline):
        failures = bench_to_json.check(
            _fresh_doc(), dict(self.SEARCH_OK, batch_sampling_speedup=0.9)
        )
        assert any("batch sampling slower" in f for f in failures)

    def test_compile_ratio_gate(self, baseline):
        # Baseline 0.6x the reference recipe; the ceiling is 0.6 / 0.8 = 0.75x.
        doc = _baseline_doc()
        doc["cases"][0]["compile_vs_reference"] = 0.6
        baseline.write_text(json.dumps(doc))

        def fresh(ratio):
            out = _fresh_doc()
            if ratio is not None:
                out["cases"][0]["compile_vs_reference"] = ratio
            return bench_to_json.check(out, self.SEARCH_OK)

        assert fresh(0.74) == []
        failures = fresh(1.0)
        assert failures and "native compile regressed" in failures[0]
        failures = fresh(None)
        assert failures and "compile_vs_reference" in failures[0]

    def test_merge_keeps_the_largest_compile_ratio(self):
        docs = []
        for ratio, ms in ((0.6, 80.0), (0.7, 70.0)):
            doc = _baseline_doc()
            doc["cases"][0].update(compile_vs_reference=ratio, native_compile_ms=ms)
            docs.append(doc)
        merged = bench_to_json.merge_conservative(docs)["cases"][0]
        assert merged["compile_vs_reference"] == 0.7
        assert merged["native_compile_ms"] == 70.0

    def test_runs_keep_the_largest_surrogate_ratio(self, baseline, monkeypatch):
        rf_ms = iter((20.0, 60.0, 40.0))  # ratios 5x, 15x, 10x

        def run(preset, repeats):
            search = dict(self.SEARCH_OK, ask_loop_rf_ms_per_eval=next(rf_ms))
            return {"compiler": _baseline_doc(), "search": search}

        monkeypatch.setattr(bench_backend_tiers, "run", run)
        assert bench_to_json.main(["--runs", "3"]) == 0
        written = json.loads(bench_to_json.SEARCH_JSON.read_text())
        assert bench_to_json.surrogate_cost_ratio(written) == 15.0

    def test_missing_baseline_reported(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            bench_to_json, "COMPILER_JSON", tmp_path / "nope.json"
        )
        failures = bench_to_json.check(_fresh_doc(), self.SEARCH_OK)
        assert failures and "missing baseline" in failures[0]
