"""Statistics battery for multi-fidelity measurement.

Covers :func:`repro.runtime.fidelity.probe_statistics` against known
distributions, :class:`AdaptiveRepeatPolicy` at the margin boundaries and the
degenerate edges (zero variance, single repeat, failed probes), and the
:class:`MultiFidelityEvaluator` scheduling mechanics (probe → promote top-up,
early termination, counters, attribute forwarding, telemetry events).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.common.errors import ReproError
from repro.runtime.fidelity import (
    AdaptiveRepeatPolicy,
    FidelityDecision,
    MultiFidelityEvaluator,
    probe_statistics,
)
from repro.runtime.measure import FAILED_COST, Evaluator, MeasureResult
from repro.telemetry import (
    RecordingSink,
    Telemetry,
    TrialPromoted,
    TrialPruned,
    telemetry_session,
)


class TestProbeStatistics:
    def test_hand_computed_values(self):
        mean, std, sem = probe_statistics([2.0, 4.0, 6.0])
        assert mean == pytest.approx(4.0)
        assert std == pytest.approx(2.0)  # unbiased: sqrt(((2)^2+(0)^2+(2)^2)/2)
        assert sem == pytest.approx(2.0 / math.sqrt(3))

    def test_matches_numpy_on_known_distribution(self):
        rng = np.random.default_rng(7)
        samples = rng.normal(loc=3.0, scale=0.5, size=50).tolist()
        mean, std, sem = probe_statistics(samples)
        assert mean == pytest.approx(np.mean(samples))
        assert std == pytest.approx(np.std(samples, ddof=1))
        assert sem == pytest.approx(np.std(samples, ddof=1) / math.sqrt(50))

    def test_large_sample_converges_to_population(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(loc=10.0, scale=2.0, size=20_000).tolist()
        mean, std, sem = probe_statistics(samples)
        assert mean == pytest.approx(10.0, abs=0.1)
        assert std == pytest.approx(2.0, abs=0.1)
        assert sem == pytest.approx(std / math.sqrt(20_000))

    def test_single_repeat_has_no_variance_information(self):
        assert probe_statistics([1.5]) == (1.5, 0.0, 0.0)

    def test_zero_variance_sample(self):
        mean, std, sem = probe_statistics([0.25] * 4)
        assert (mean, std, sem) == (0.25, 0.0, 0.0)

    def test_empty_sample_rejected(self):
        with pytest.raises(ReproError, match="at least one"):
            probe_statistics([])


class TestPolicyValidation:
    def test_bad_probe_repeats(self):
        with pytest.raises(ReproError, match="probe_repeats"):
            AdaptiveRepeatPolicy(probe_repeats=0)

    def test_bad_margin(self):
        with pytest.raises(ReproError, match="promote_margin"):
            AdaptiveRepeatPolicy(promote_margin=-0.01)

    def test_bad_z(self):
        with pytest.raises(ReproError, match="z"):
            AdaptiveRepeatPolicy(z=-1.0)


class TestPolicyDecisions:
    def test_no_incumbent_always_promotes(self):
        policy = AdaptiveRepeatPolicy(promote_margin=0.0, z=0.0)
        d = policy.decide([100.0, 200.0], None)
        assert d.promote and "no incumbent" in d.reason
        assert math.isinf(d.limit)

    def test_infinite_incumbent_treated_as_absent(self):
        d = AdaptiveRepeatPolicy().decide([5.0], math.inf)
        assert d.promote

    def test_margin_boundary_inclusive(self):
        # limit = 2.0 * (1 + 0.5) = 3.0; a zero-variance probe exactly at the
        # limit is promoted (<=), just above it is terminated.
        policy = AdaptiveRepeatPolicy(promote_margin=0.5, z=1.0)
        at = policy.decide([3.0, 3.0], 2.0)
        assert at.promote
        assert at.lower_bound == pytest.approx(3.0)
        assert at.limit == pytest.approx(3.0)
        above = policy.decide([3.5, 3.5], 2.0)
        assert not above.promote
        assert "exceeds limit" in above.reason

    def test_z_widens_the_benefit_of_the_doubt(self):
        # probe mean 3.0 vs incumbent 2.0 with no margin: the raw mean says
        # terminate, but a 2-sem bound dips below the incumbent and promotes.
        probe = [2.0, 4.0]
        strict = AdaptiveRepeatPolicy(promote_margin=0.0, z=0.0).decide(probe, 2.0)
        assert not strict.promote
        generous = AdaptiveRepeatPolicy(promote_margin=0.0, z=2.0).decide(probe, 2.0)
        assert generous.promote
        sem = np.std(probe, ddof=1) / math.sqrt(2)
        assert generous.lower_bound == pytest.approx(3.0 - 2.0 * sem)

    def test_zero_variance_probe_decided_on_mean_alone(self):
        # sem is 0, so z cannot rescue a slow zero-variance probe.
        policy = AdaptiveRepeatPolicy(promote_margin=0.1, z=100.0)
        assert not policy.decide([2.0, 2.0], 1.0).promote
        assert policy.decide([1.05, 1.05], 1.0).promote

    def test_single_repeat_probe_uses_raw_mean(self):
        policy = AdaptiveRepeatPolicy(probe_repeats=1, promote_margin=0.2, z=3.0)
        d = policy.decide([1.3], 1.0)
        assert not d.promote
        assert d.lower_bound == pytest.approx(1.3)  # sem 0 despite z=3

    def test_failed_probe_never_promoted(self):
        d = AdaptiveRepeatPolicy().decide([], 1.0)
        assert not d.promote
        assert "never promoted" in d.reason
        # ... even with no incumbent established yet:
        assert not AdaptiveRepeatPolicy().decide([], None).promote

    def test_failed_cost_sentinel_never_promoted(self):
        # A FAILED_COST sample (1e10) against any finite incumbent is hopeless.
        d = AdaptiveRepeatPolicy(promote_margin=1.0, z=2.0).decide(
            [FAILED_COST, FAILED_COST], 1.0
        )
        assert not d.promote

    def test_decision_is_frozen(self):
        d = AdaptiveRepeatPolicy().decide([1.0], None)
        assert isinstance(d, FidelityDecision)
        with pytest.raises(AttributeError):
            d.promote = False


class ScriptedEvaluator(Evaluator):
    """Deterministic fake: each config draws costs from its own stream.

    Repeats consume the stream sequentially, so a promotion's top-up samples
    are distinguishable from the probe samples — concatenation order is
    observable. Configs listed in ``fail`` always error out.
    """

    def __init__(self, streams, fail=(), repeat=4):
        self.streams = {k: list(v) for k, v in streams.items()}
        self.fail = set(fail)
        self.repeat = repeat
        self.number = 1
        self.calls = []  # (config key, repeats requested)
        self._pos = {}
        self._t = 0.0

    def evaluate(self, params):
        key = params["P0"]
        n = int(self.repeat)
        self.calls.append((key, n))
        self._t += 0.1  # compile
        if key in self.fail:
            return MeasureResult(
                config=dict(params),
                costs=(),
                compile_time=0.1,
                timestamp=self._t,
                error="injected failure",
            )
        pos = self._pos.get(key, 0)
        sample = tuple(self.streams[key][pos : pos + n])
        self._pos[key] = pos + n
        self._t += sum(sample)
        return MeasureResult(
            config=dict(params), costs=sample, compile_time=0.1, timestamp=self._t
        )

    def elapsed(self):
        return self._t


class TestMultiFidelityEvaluator:
    def test_requires_repeat_capable_base(self):
        class NoRepeat(Evaluator):
            pass

        with pytest.raises(ReproError, match="repeat"):
            MultiFidelityEvaluator(NoRepeat())

    def test_rejects_bad_jobs(self):
        base = ScriptedEvaluator({1: [1.0] * 8})
        with pytest.raises(ReproError, match="jobs"):
            MultiFidelityEvaluator(base, jobs=0)

    def test_full_budget_at_or_below_probe_is_a_direct_measurement(self):
        base = ScriptedEvaluator({1: [1.0, 1.0]}, repeat=2)
        mfe = MultiFidelityEvaluator(base, AdaptiveRepeatPolicy(probe_repeats=2))
        result = mfe.evaluate({"P0": 1})
        assert result.fidelity == "full"
        assert base.calls == [(1, 2)]
        assert mfe.fidelity_stats()["full_direct"] == 1.0

    def test_first_trial_promotes_and_sets_incumbent(self):
        base = ScriptedEvaluator({1: [1.0, 1.2, 0.9, 1.1]}, repeat=4)
        mfe = MultiFidelityEvaluator(base, AdaptiveRepeatPolicy(probe_repeats=2))
        result = mfe.evaluate({"P0": 1})
        assert result.fidelity == "promoted"
        # probe of 2, then a top-up of exactly full - probe = 2 repeats
        assert base.calls == [(1, 2), (1, 2)]
        # costs concatenate probe + top-up in stream order, nothing re-measured
        assert result.costs == (1.0, 1.2, 0.9, 1.1)
        assert result.extra["fidelity_repeats"] == 4.0
        assert mfe._incumbent == pytest.approx(result.mean_cost)

    def test_hopeless_probe_is_terminated_early(self):
        base = ScriptedEvaluator(
            {1: [1.0, 1.0, 1.0, 1.0], 2: [9.0, 9.0, 9.0, 9.0]}, repeat=4
        )
        mfe = MultiFidelityEvaluator(
            base, AdaptiveRepeatPolicy(probe_repeats=2, promote_margin=0.15)
        )
        mfe.evaluate({"P0": 1})  # establishes incumbent 1.0
        loser = mfe.evaluate({"P0": 2})
        assert loser.fidelity == "probe"
        assert loser.low_fidelity
        assert len(loser.costs) == 2  # never topped up
        assert base.calls == [(1, 2), (1, 2), (2, 2)]
        stats = mfe.fidelity_stats()
        assert stats == {
            "probed": 2.0,
            "promoted": 1.0,
            "early_stopped": 1.0,
            "full_direct": 0.0,
        }

    def test_terminated_probe_does_not_move_the_incumbent(self):
        base = ScriptedEvaluator(
            {1: [2.0] * 4, 2: [9.0] * 4, 3: [1.9] * 4}, repeat=4
        )
        mfe = MultiFidelityEvaluator(
            base, AdaptiveRepeatPolicy(probe_repeats=2, promote_margin=0.1)
        )
        mfe.evaluate({"P0": 1})
        mfe.evaluate({"P0": 2})  # terminated
        assert mfe._incumbent == pytest.approx(2.0)
        promoted = mfe.evaluate({"P0": 3})  # still judged against 2.0
        assert promoted.fidelity == "promoted"
        assert mfe._incumbent == pytest.approx(1.9)

    def test_failed_probe_never_reaches_full_fidelity(self):
        base = ScriptedEvaluator({1: [1.0] * 4, 2: []}, fail={2}, repeat=4)
        mfe = MultiFidelityEvaluator(base, AdaptiveRepeatPolicy(probe_repeats=2))
        mfe.evaluate({"P0": 1})
        failed = mfe.evaluate({"P0": 2})
        assert not failed.ok
        assert failed.mean_cost == FAILED_COST
        assert failed.fidelity == "probe"
        # exactly one (probe) call for the failing config — no top-up
        assert [c for c in base.calls if c[0] == 2] == [(2, 2)]
        assert mfe.fidelity_stats()["early_stopped"] == 1.0

    def test_attribute_forwarding_round_trips(self):
        base = ScriptedEvaluator({1: [1.0] * 8}, repeat=4)
        mfe = MultiFidelityEvaluator(base)
        assert mfe.repeat == 4  # read-through
        mfe.repeat = 6  # write-through to the wrapped evaluator
        assert base.repeat == 6
        mfe.number = 3
        assert base.number == 3
        assert mfe.elapsed() == base.elapsed()

    def test_probe_repeat_restored_after_each_phase(self):
        base = ScriptedEvaluator({1: [1.0] * 8, 2: [50.0] * 8}, repeat=4)
        mfe = MultiFidelityEvaluator(base, AdaptiveRepeatPolicy(probe_repeats=2))
        mfe.evaluate({"P0": 1})
        assert base.repeat == 4  # promotion path restores the full budget
        mfe.evaluate({"P0": 2})
        assert base.repeat == 4  # termination path too

    def test_telemetry_promoted_and_pruned_events(self):
        base = ScriptedEvaluator(
            {1: [1.0, 1.2, 0.9, 1.1], 2: [9.0, 9.0]}, repeat=4
        )
        mfe = MultiFidelityEvaluator(base, AdaptiveRepeatPolicy(probe_repeats=2))
        sink = RecordingSink()
        tel = Telemetry(sinks=[sink])
        with telemetry_session(tel):
            mfe.evaluate({"P0": 1})
            mfe.evaluate({"P0": 2})
        tel.close()
        promoted = [e for e in sink.events if isinstance(e, TrialPromoted)]
        pruned = [e for e in sink.events if isinstance(e, TrialPruned)]
        assert len(promoted) == 1
        assert promoted[0].probe_repeats == 2
        assert promoted[0].total_repeats == 4
        assert promoted[0].probe_mean == pytest.approx(1.1)
        assert len(pruned) == 1
        assert pruned[0].source == "fidelity"
        assert pruned[0].estimate == pytest.approx(9.0)

    def test_batch_probe_then_promote_waves(self):
        base = ScriptedEvaluator(
            {1: [1.0] * 4, 2: [9.0] * 4, 3: [1.05] * 4}, repeat=4
        )
        mfe = MultiFidelityEvaluator(
            base, AdaptiveRepeatPolicy(probe_repeats=2, promote_margin=0.15)
        )
        results = mfe.evaluate_batch([{"P0": 1}, {"P0": 2}, {"P0": 3}])
        assert [r.fidelity for r in results] == ["promoted", "probe", "promoted"]
        assert [len(r.costs) for r in results] == [4, 2, 4]
