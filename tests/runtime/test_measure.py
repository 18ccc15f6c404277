"""Tests for the shared measurement abstractions and LocalEvaluator."""

import numpy as np
import pytest

from repro.common.errors import ReproError
from repro.kernels.extra import gemm_tuned
from repro.runtime.measure import (
    FAILED_COST,
    PREBUILT_LIMIT,
    LocalEvaluator,
    MeasureResult,
    evaluate_batch,
)


def _builder(params):
    return gemm_tuned(8, 8, 8, params)


def _plain_exception_builder(params):
    raise ValueError(f"kernel bug for {dict(params)}")


def _crashing_validator(buffers):
    raise RuntimeError("validator exploded")


class TestMeasureResult:
    def test_ok_mean(self):
        r = MeasureResult({}, costs=(1.0, 3.0), compile_time=0.1, timestamp=1.0)
        assert r.ok
        assert r.mean_cost == 2.0
        assert r.min_cost == 1.0

    def test_error_gives_failed_cost(self):
        r = MeasureResult({}, costs=(), compile_time=0.1, timestamp=1.0, error="boom")
        assert not r.ok
        assert r.mean_cost == FAILED_COST


class TestLocalEvaluator:
    def test_successful_evaluation(self):
        ev = LocalEvaluator(_builder, seed=0)
        res = ev.evaluate({"P0": 4, "P1": 4})
        assert res.ok
        assert res.mean_cost > 0
        assert res.compile_time > 0
        assert res.timestamp > 0

    def test_costs_length_matches_repeat(self):
        ev = LocalEvaluator(_builder, repeat=3, seed=0)
        res = ev.evaluate({"P0": 2, "P1": 2})
        assert len(res.costs) == 3

    def test_compile_error_captured(self):
        def bad_builder(params):
            raise ReproError("bad tile")

        ev = LocalEvaluator(bad_builder)
        res = ev.evaluate({"P0": 1})
        assert not res.ok
        assert "compile error" in res.error

    def test_validate_hook(self):
        ev = LocalEvaluator(_builder, validate=lambda bufs: "validation failed")
        res = ev.evaluate({"P0": 2, "P1": 2})
        assert res.error == "validation failed"

    def test_elapsed_monotone(self):
        ev = LocalEvaluator(_builder)
        a = ev.elapsed()
        ev.evaluate({"P0": 2, "P1": 2})
        assert ev.elapsed() > a

    def test_invalid_counts_rejected(self):
        with pytest.raises(ReproError):
            LocalEvaluator(_builder, number=0)

    def test_config_coerced_to_int(self):
        ev = LocalEvaluator(_builder, seed=0)
        res = ev.evaluate({"P0": np.int64(4), "P1": np.int64(2)})
        assert res.ok
        assert isinstance(res.config["P0"], int)

    def test_backend_pin_recorded_in_result(self):
        ev = LocalEvaluator(_builder, seed=0, backend="interp")
        res = ev.evaluate({"P0": 2, "P1": 2})
        assert res.ok
        assert res.backend == "interp"

    def test_default_backend_is_tensor_tier(self):
        res = LocalEvaluator(_builder, seed=0).evaluate({"P0": 2, "P1": 2})
        assert res.backend == "tensor"

    def test_native_pin_measures_native_when_toolchain_exists(self):
        from repro.tir.codegen_c import NativeToolchainError, find_toolchain

        try:
            find_toolchain()
        except NativeToolchainError:
            pytest.skip("no C toolchain")
        res = LocalEvaluator(_builder, seed=0, backend="native").evaluate(
            {"P0": 2, "P1": 2}
        )
        assert res.ok
        assert res.backend == "native"


class TestPrecompile:
    """A configuration ``precompile`` built is built once: ``evaluate``
    takes the held module instead of rebuilding it."""

    @staticmethod
    def _counting(fail_on=None):
        calls = []

        def builder(params):
            calls.append(dict(params))
            if params.get("i") == fail_on:
                raise ReproError("bad tile")
            return gemm_tuned(8, 8, 8, {"P0": 2, "P1": 2})

        return builder, calls

    def test_evaluate_takes_the_precompiled_build(self):
        builder, calls = self._counting()
        ev = LocalEvaluator(builder, seed=0)
        assert ev.precompile({"i": 0}) is True
        res = ev.evaluate({"i": 0})
        assert res.ok and res.backend == "tensor"
        assert len(calls) == 1
        ev.evaluate({"i": 0})  # the held build was taken: this one rebuilds
        assert len(calls) == 2

    def test_same_output_as_a_fresh_build(self):
        builder, _ = self._counting()
        outputs = []

        def keep(bufs):
            outputs.append(bufs[-1].copy())

        assert LocalEvaluator(builder, seed=0, validate=keep).evaluate({"i": 0}).ok
        ahead = LocalEvaluator(builder, seed=0, validate=keep)
        ahead.precompile({"i": 0})
        assert ahead.evaluate({"i": 0}).ok
        np.testing.assert_array_equal(outputs[0], outputs[1])

    def test_failed_precompile_holds_nothing(self):
        builder, calls = self._counting(fail_on=1)
        ev = LocalEvaluator(builder, seed=0)
        assert ev.precompile({"i": 1}) is False
        res = ev.evaluate({"i": 1})
        assert not res.ok
        assert res.error == "compile error: bad tile"
        assert len(calls) == 2

    def test_held_builds_are_bounded(self):
        builder, calls = self._counting()
        ev = LocalEvaluator(builder, seed=0)
        for i in range(PREBUILT_LIMIT + 1):
            assert ev.precompile({"i": i})
        ev.evaluate({"i": 1})  # still held
        assert len(calls) == PREBUILT_LIMIT + 1
        ev.evaluate({"i": 0})  # the oldest was dropped
        assert len(calls) == PREBUILT_LIMIT + 2


class TestLocalEvaluatorRegression:
    """LocalEvaluator must survive plain Exceptions, not only ReproError:
    a kernel or validator bug is a failed trial, never a dead search."""

    def test_plain_exception_in_builder_is_failed_result(self):
        ev = LocalEvaluator(_plain_exception_builder)
        res = ev.evaluate({"P0": 2})
        assert not res.ok
        assert res.mean_cost == FAILED_COST
        assert "ValueError" in res.error

    def test_plain_exception_in_validator_is_failed_result(self):
        ev = LocalEvaluator(_builder, validate=_crashing_validator)
        res = ev.evaluate({"P0": 2, "P1": 2})
        assert not res.ok
        assert "RuntimeError" in res.error

    def test_search_survives_exception_heavy_space(self):
        """A whole AMBS run over a builder that always raises completes."""
        from repro.common.errors import TuningError
        from repro.configspace import ConfigurationSpace, OrdinalHyperparameter
        from repro.ytopt.problem import TuningProblem
        from repro.ytopt.search import AMBS

        space = ConfigurationSpace(name="s", seed=0)
        space.add_hyperparameters([OrdinalHyperparameter("P0", [1, 2, 3, 4])])
        problem = TuningProblem(space, LocalEvaluator(_plain_exception_builder))
        search = AMBS(problem, max_evals=4, seed=0)
        with pytest.raises(TuningError):
            # every eval failed -> no best; but the search loop itself survived
            search.run()
        assert len(search.database) == 4
        assert all(not r.ok for r in search.database)


class TestEvaluateBatch:
    def test_jobs_validation(self):
        with pytest.raises(ReproError):
            evaluate_batch(LocalEvaluator(_builder), [{"P0": 2, "P1": 2}], jobs=0)
