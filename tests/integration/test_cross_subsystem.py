"""Cross-subsystem integrations: molds on the simulated backend, transfer
from ytopt runs into AutoTVM."""

from repro.common.timing import VirtualClock
from repro.swing import ScheduleSwingEvaluator
from repro.ytopt import Plopper


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
