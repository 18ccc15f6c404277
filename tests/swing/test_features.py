"""Tests for schedule feature extraction and schedule pricing."""

import pytest

import repro.te as te
from repro.common.errors import ReproError
from repro.common.timing import VirtualClock
from repro.kernels import problem_size, threemm_tuned
from repro.kernels.extra import gemm_tuned
from repro.swing import (
    ScheduleSwingEvaluator,
    SwingPerformanceModel,
    extract_stage_features,
    price_schedule,
)
from tests.conftest import make_matmul


def _tiled_matmul(ty, tx, n=64, m=64, k=64):
    A, B, C = make_matmul(n, m, k)
    s = te.create_schedule(C.op)
    y, x = s[C].op.axis
    kk = s[C].op.reduce_axis[0]
    yo, yi = s[C].split(y, ty)
    xo, xi = s[C].split(x, tx)
    s[C].reorder(yo, xo, kk, yi, xi)
    return s


class TestExtractStageFeatures:
    def test_tiled_matmul(self):
        s = _tiled_matmul(8, 16)
        feats = extract_stage_features(s.stages[0])
        assert feats.kind == "gemm"
        assert (feats.m, feats.n, feats.k) == (64, 64, 64)
        assert (feats.ty, feats.tx) == (8, 16)

    def test_unscheduled_matmul_full_tiles(self):
        _, _, C = make_matmul(32, 24, 16)
        s = te.create_schedule(C.op)
        feats = extract_stage_features(s.stages[0])
        assert (feats.ty, feats.tx) == (32, 24)

    def test_elementwise_stage(self):
        A = te.placeholder((8, 8), name="A")
        B = te.compute((8, 8), lambda i, j: A[i, j] * 2.0, name="B")
        s = te.create_schedule(B.op)
        feats = extract_stage_features(s.stages[0])
        assert feats.kind == "elementwise"
        assert feats.elements == 64

    def test_3d_reduction_stage(self):
        # SUM[r, q, p] = sum_s A[r, q, s] * C4[s, p], q and p tiled by 2 and 4.
        A = te.placeholder((4, 8, 16), name="A")
        C4 = te.placeholder((16, 16), name="C4")
        k = te.reduce_axis((0, 16), name="s")
        SUM = te.compute(
            (4, 8, 16),
            lambda r, q, p: te.sum(A[r, q, k] * C4[k, p], axis=k),
            name="SUM",
        )
        s = te.create_schedule(SUM.op)
        _r, q, p = s[SUM].op.axis
        qo, qi = s[SUM].split(q, factor=2)
        po, pi = s[SUM].split(p, factor=4)
        s[SUM].reorder(qo, po, k, qi, pi)
        s[SUM].vectorize(pi)
        feats = extract_stage_features(s.stages[0])
        assert feats.kind == "gemm"
        assert feats.m == 8 * 4  # q extent times outer r reps
        assert feats.n == 16
        assert (feats.ty, feats.tx) == (2, 4)


class TestPriceSchedule:
    def test_positive_and_deterministic(self):
        s = _tiled_matmul(8, 16)
        t1 = price_schedule(s)
        t2 = price_schedule(s)
        assert t1 == t2 > 0

    def test_tiles_change_price(self):
        bad = price_schedule(_tiled_matmul(1, 1))
        good = price_schedule(_tiled_matmul(16, 32))
        assert bad > good

    def test_matches_registry_profile_ordering(self):
        # Pricing the 3mm schedule directly must rank configs the same way
        # the hand-written registry profile does.
        size = problem_size("3mm", "large")
        model = SwingPerformanceModel()
        good_params = {p: 40 for p in ("P0", "P1", "P2", "P3", "P4", "P5")}
        bad_params = {p: 1 for p in ("P0", "P1", "P2", "P3", "P4", "P5")}
        s_good, _ = threemm_tuned(size, good_params)
        s_bad, _ = threemm_tuned(size, bad_params)
        assert price_schedule(s_good, model) < price_schedule(s_bad, model)

    def test_multi_stage_sums(self):
        size = problem_size("3mm", "mini")
        s, _ = threemm_tuned(size, {p: 4 for p in ("P0", "P1", "P2", "P3", "P4", "P5")})
        total = price_schedule(s)
        assert total > 0


class TestScheduleSwingEvaluator:
    def _builder(self, params):
        return gemm_tuned(256, 256, 256, params)

    def test_evaluate_and_clock(self):
        ev = ScheduleSwingEvaluator(self._builder, clock=VirtualClock())
        res = ev.evaluate({"P0": 16, "P1": 32})
        assert res.ok
        assert res.mean_cost > 0
        assert ev.clock.now >= res.compile_time + res.mean_cost

    def test_bad_params_reported(self):
        ev = ScheduleSwingEvaluator(self._builder, clock=VirtualClock())
        res = ev.evaluate({"P0": 0, "P1": 4})  # invalid tile factor
        assert not res.ok
        assert "compile error" in res.error

    def test_bo_tunes_custom_kernel_on_simulator(self):
        from repro.configspace import ConfigurationSpace, OrdinalHyperparameter
        from repro.core import AutotuneConfig, BayesianAutotuner

        space = ConfigurationSpace(seed=0)
        space.add_hyperparameters(
            [
                OrdinalHyperparameter("P0", [1, 4, 16, 64, 256]),
                OrdinalHyperparameter("P1", [1, 4, 16, 64, 256]),
            ]
        )
        ev = ScheduleSwingEvaluator(self._builder, clock=VirtualClock())
        bo = BayesianAutotuner(
            space, ev, config=AutotuneConfig(max_evals=15, seed=0)
        )
        result = bo.run()
        worst = ev.evaluate({"P0": 1, "P1": 1}).mean_cost
        assert result.best_runtime < worst

    def test_validation(self):
        with pytest.raises(ReproError):
            ScheduleSwingEvaluator(self._builder, number=0)
