"""Cross-subsystem integrations: AutoScheduler on Relay subgraphs, molds on
the simulated backend, transfer from ytopt runs into AutoTVM, etc."""

import numpy as np
import pytest

from repro import relay
from repro.autoscheduler import SearchTask, TuningOptions, auto_schedule
from repro.common.timing import VirtualClock
from repro.relay.build import lower_group
from repro.relay.transform import fuse_ops, infer_shapes
from repro.runtime import build
from repro.swing import ScheduleSwingEvaluator
from repro.ytopt import Plopper


class TestAutoschedulerOnRelaySubgraph:
    def test_auto_schedule_a_fused_dense_group(self):
        # Build a dense+relu model, take its fused subgraph, and let the
        # mini-Ansor derive and search the schedule space for it.
        rng = np.random.default_rng(0)
        x = relay.var("x", (16, 32))
        w = relay.const(rng.standard_normal((24, 32)), "w")
        f = relay.Function([x], relay.relu(relay.dense(x, w)))
        infer_shapes(f)
        group = fuse_ops(f)[0]

        def graph_builder():
            _sched, args, _ext = lower_group(group)
            return list(args)

        task = SearchTask(graph_builder, name="relay-dense", target="llvm")
        result = auto_schedule(task, TuningOptions(n_trials=8, seed=0))
        assert result.n_trials == 8
        # The derived space tiles the dense stage (named after the graph node).
        assert any(p.endswith(".y") for p in result.sketch.params)

        # The winning annotation builds and computes the right thing.
        sched, args = task.apply_best(result.best_annotation)
        mod = build(sched, args)
        xv = rng.standard_normal((16, 32))
        wv = w.value
        out = np.zeros((16, 24))
        mod(xv, wv, out)
        np.testing.assert_allclose(out, np.maximum(xv @ wv.T, 0), rtol=1e-10)


class TestMoldOnSimulatedBackend:
    def test_plopper_priced_by_swing_model(self):
        mold = """
def build_schedule():
    A = te.placeholder((512, 512), name="A")
    B = te.placeholder((512, 512), name="B")
    k = te.reduce_axis((0, 512), name="k")
    C = te.compute((512, 512), lambda i, j: te.sum(A[i, k] * B[k, j], axis=k))
    s = te.create_schedule(C.op)
    yo, yi = s[C].split(s[C].op.axis[0], #P0)
    xo, xi = s[C].split(s[C].op.axis[1], #P1)
    s[C].reorder(yo, xo, s[C].op.reduce_axis[0], yi, xi)
    return s, [A, B, C]
"""
        plopper = Plopper(mold)
        ev = ScheduleSwingEvaluator(plopper.schedule_builder(), clock=VirtualClock())
        fast = ev.evaluate({"P0": 32, "P1": 64})
        slow = ev.evaluate({"P0": 1, "P1": 1})
        assert fast.ok and slow.ok
        assert fast.mean_cost < slow.mean_cost


class TestYtoptRecordsIntoAutoTVM:
    def test_bo_results_warm_start_xgb(self):
        # Run ytopt, convert its database into AutoTVM records, warm-start XGB.
        from repro.autotvm import XGBTuner, task_from_benchmark, warm_start
        from repro.kernels import get_benchmark
        from repro.swing import SwingEvaluator
        from repro.ytopt import AMBS, TuningProblem
        from tests.autotvm.loop import run_search, tuning_records

        bench = get_benchmark("cholesky", "large")
        ev1 = SwingEvaluator(bench.profile, clock=VirtualClock())
        bo_result = AMBS(
            TuningProblem(bench.config_space(seed=0), ev1, name=bench.name),
            max_evals=20,
            seed=0,
        ).run()

        records = tuning_records(bo_result, bench.name, tuner="ytopt")
        ev2 = SwingEvaluator(bench.profile, clock=VirtualClock())
        task = task_from_benchmark(bench, ev2)
        tuner = XGBTuner(task, seed=1)
        absorbed = warm_start(tuner, records)
        assert absorbed == 20
        result = run_search(tuner, 10)
        # None of ytopt's 20 configurations is measured again.
        assert not {tuple(sorted(r.config.items())) for r in result.database} & {
            tuple(sorted(r.config.items())) for r in bo_result.database
        }
