"""Pipelined vs. serial engine parity: identical run records, no extra tells.

The contract in-order commits + snapshot/restore speculation buy:
whatever the pipeline overlaps, the sequence of committed observations is
exactly the serial loop's. Under the Swing virtual clock every quantity —
configuration, priced runtime, compile time, elapsed process time — is
deterministic, so the comparison is literal equality, row for row.
"""

import pytest

from repro.kernels.registry import get_benchmark
from repro.swing import SwingEvaluator
from repro.ytopt.problem import TuningProblem
from repro.ytopt.search import AMBS


def _signature(result):
    return [
        (r.config, r.runtime, r.compile_time, r.elapsed, r.fidelity, r.error)
        for r in result.database.records()
    ]


def _run_swing(seed, evals, batch, pipelined, refit_every):
    bench = get_benchmark("lu", "mini")
    evaluator = SwingEvaluator(bench.profile, number=1)
    problem = TuningProblem(
        bench.config_space(seed=seed), evaluator, name=bench.name
    )
    search = AMBS(
        problem,
        max_evals=evals,
        seed=seed,
        batch_size=batch,
        pipeline=pipelined,
        refit_every=refit_every,
    )
    result = search.run()
    return result, _signature(result)


class TestPipelinedSerialParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("refit_every", [1, 0])
    def test_identical_records(self, seed, refit_every):
        """The issue's headline guarantee, fuzzed over seeds: at
        ``refit_every=1`` (and under the geometric schedule, since both arms
        share it) the pipelined run's store is byte-identical to serial."""
        serial, sig_s = _run_swing(seed, 18, 1, False, refit_every)
        pipelined, sig_p = _run_swing(seed, 18, 1, True, refit_every)
        assert sig_s == sig_p
        assert serial.best_config == pipelined.best_config
        assert serial.best_runtime == pipelined.best_runtime

    @pytest.mark.parametrize("batch", [2, 4])
    def test_identical_records_batched(self, batch):
        _, sig_s = _run_swing(0, 16, batch, False, 1)
        _, sig_p = _run_swing(0, 16, batch, True, 1)
        assert sig_s == sig_p

    def test_no_extra_tells_from_speculation(self):
        """Speculative work never leaks into the committed record stream."""
        result, sig = _run_swing(0, 18, 1, True, 0)
        assert result.n_evals == 18
        assert len(sig) == 18

    def test_pipelined_overhead_is_stamped(self):
        result, _ = _run_swing(0, 12, 1, True, 0)
        assert result.overhead is not None
        assert result.overhead["mode"] == "pipelined"
        for key in ("search_seconds", "compile_seconds", "measure_seconds",
                    "wall_seconds", "spec_hit_rate", "refits",
                    "refits_skipped"):
            assert key in result.overhead
        serial, _ = _run_swing(0, 12, 1, False, 0)
        assert serial.overhead is not None
        assert serial.overhead["mode"] == "serial"
