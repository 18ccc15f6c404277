"""Cross-subsystem integrations: molds on the simulated backend."""

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
