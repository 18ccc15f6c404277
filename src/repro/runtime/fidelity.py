"""Multi-fidelity measurement: probe cheaply, promote only plausible winners.

The paper's headline metric is *total autotuning process time*, yet a naive
measurement protocol spends the full ``repeat`` budget on every configuration
— including obvious losers. Sample-size scheduling (Tørring & Elster, "The
Impact of Sample Sizes") recovers most of that time: measure each candidate
with a small *probe* repeat count first, and promote to the full budget only
when the probe estimate is statistically close enough to the incumbent to
matter.

Two pieces:

* :class:`AdaptiveRepeatPolicy` — the decision rule. From the probe repeats it
  computes the sample mean and a lower confidence bound
  ``mean - z * std / sqrt(n)``; the candidate is promoted iff that optimistic
  bound is within ``promote_margin`` of the incumbent
  (``bound <= incumbent * (1 + promote_margin)``). Failed probes are never
  promoted. With no incumbent yet, everything is promoted (the first trials
  establish the baseline).
* :class:`MultiFidelityEvaluator` — an :class:`~repro.runtime.measure.Evaluator`
  wrapper that applies the policy to any evaluator exposing a mutable
  ``repeat`` attribute (:class:`~repro.runtime.measure.LocalEvaluator`,
  :class:`~repro.swing.SwingEvaluator`). Promoted candidates are
  topped up with the *remaining* ``full - probe`` repeats and the cost samples
  are concatenated, so a promotion never re-pays the probe repeats. Losers
  keep their probe estimate and are flagged ``fidelity="probe"`` in the
  result, the performance database, and the telemetry stream
  (:class:`~repro.telemetry.events.TrialPruned`).

Results carry their fidelity class on
:attr:`~repro.runtime.measure.MeasureResult.fidelity`: ``"full"`` (measured at
the full budget in one shot), ``"promoted"`` (probe then top-up), or
``"probe"`` (terminated early).
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.common.errors import ReproError
from repro.runtime.measure import Evaluator, MeasureResult
from repro.telemetry.context import get_telemetry
from repro.telemetry.events import TrialPromoted, TrialPruned

__all__ = [
    "AdaptiveRepeatPolicy",
    "FidelityDecision",
    "MultiFidelityEvaluator",
    "probe_statistics",
]


def probe_statistics(costs: Sequence[float]) -> tuple[float, float, float]:
    """(mean, sample std, standard error) of a probe's per-repeat costs.

    The std is the unbiased (ddof=1) estimate; with a single repeat there is
    no variance information, so std and sem are 0 — the decision then rests on
    the mean alone.
    """
    n = len(costs)
    if n == 0:
        raise ReproError("probe_statistics requires at least one cost sample")
    mean = sum(costs) / n
    if n == 1:
        return mean, 0.0, 0.0
    var = sum((c - mean) ** 2 for c in costs) / (n - 1)
    std = math.sqrt(var)
    return mean, std, std / math.sqrt(n)


@dataclass(frozen=True)
class FidelityDecision:
    """Outcome of one promote-or-terminate decision."""

    promote: bool
    reason: str
    probe_mean: float
    lower_bound: float  # optimistic (lower confidence) estimate of the mean
    limit: float  # incumbent * (1 + margin); inf when there is no incumbent


class AdaptiveRepeatPolicy:
    """Promote-to-full-fidelity rule based on a probe confidence bound.

    Parameters
    ----------
    probe_repeats:
        Repeats measured in the probe phase.
    promote_margin:
        Fractional slack over the incumbent: a candidate is promoted iff its
        lower confidence bound is ``<= incumbent * (1 + promote_margin)``.
    z:
        Width of the confidence bound in standard errors. 0 compares the raw
        probe mean; larger values promote more generously under noise.
    """

    def __init__(
        self,
        probe_repeats: int = 2,
        promote_margin: float = 0.15,
        z: float = 1.0,
    ) -> None:
        if probe_repeats < 1:
            raise ReproError(f"probe_repeats must be >= 1, got {probe_repeats}")
        if promote_margin < 0:
            raise ReproError(f"promote_margin must be >= 0, got {promote_margin}")
        if z < 0:
            raise ReproError(f"z must be >= 0, got {z}")
        self.probe_repeats = probe_repeats
        self.promote_margin = promote_margin
        self.z = z

    def decide(
        self, costs: Sequence[float], incumbent: float | None
    ) -> FidelityDecision:
        """Promote or terminate a probed candidate against the incumbent.

        ``costs`` are the probe's per-repeat runtimes; ``incumbent`` is the
        best trusted (full-fidelity) mean so far, or None before one exists.
        A failed probe (no cost samples) is never promoted.
        """
        if not costs:
            return FidelityDecision(
                promote=False,
                reason="failed probe is never promoted",
                probe_mean=math.inf,
                lower_bound=math.inf,
                limit=math.inf,
            )
        mean, _std, sem = probe_statistics(costs)
        if incumbent is None or not math.isfinite(incumbent):
            return FidelityDecision(
                promote=True,
                reason="no incumbent yet",
                probe_mean=mean,
                lower_bound=mean - self.z * sem,
                limit=math.inf,
            )
        lower = mean - self.z * sem
        limit = incumbent * (1.0 + self.promote_margin)
        if lower <= limit:
            return FidelityDecision(
                promote=True,
                reason=f"bound {lower:.4g} within margin of incumbent {incumbent:.4g}",
                probe_mean=mean,
                lower_bound=lower,
                limit=limit,
            )
        return FidelityDecision(
            promote=False,
            reason=f"bound {lower:.4g} exceeds limit {limit:.4g}",
            probe_mean=mean,
            lower_bound=lower,
            limit=limit,
        )


class MultiFidelityEvaluator(Evaluator):
    """Wrap any repeat-capable evaluator with probe/promote scheduling.

    The wrapped evaluator's ``repeat`` attribute is the *full* budget; the
    wrapper temporarily lowers it for the probe phase and for the promotion
    top-up. All other attributes (``clock``, ``number``, ``seed``, …) are
    transparently forwarded, including assignment, so the wrapper drops into
    every place an evaluator goes — :class:`~repro.ytopt.search.AMBS`,
    :func:`~repro.runtime.measure.evaluate_batch` — without those layers
    knowing about fidelity. Under a virtual clock a batch's wave is thus
    charged its slowest member's probe+promote total. When the full budget
    does not exceed the probe budget, evaluation degenerates to a single
    full-fidelity measurement.
    """

    #: Attribute writes forwarded to the wrapped evaluator (measurement
    #: semantics knobs, and the scratch ``clock`` of wave accounting).
    _FORWARD = frozenset(
        {"number", "repeat", "compile_parallelism", "clock", "seed", "timeout",
         "validate"}
    )

    def __init__(
        self,
        base: Evaluator,
        policy: AdaptiveRepeatPolicy | None = None,
    ) -> None:
        if not hasattr(base, "repeat"):
            raise ReproError(
                "MultiFidelityEvaluator requires an evaluator with a mutable "
                f"'repeat' attribute, got {type(base).__name__}"
            )
        object.__setattr__(self, "_base", base)
        self.policy = policy if policy is not None else AdaptiveRepeatPolicy()
        self.n_probed = 0
        self.n_promoted = 0
        self.n_early_stopped = 0
        self.n_full_direct = 0
        self._incumbent = math.inf
        # The simulated compile cache (if the base supports one) makes the
        # promotion top-up charge zero re-compile time, like a real system
        # reusing the probe's build artifact.
        if hasattr(base, "cache_builds"):
            base.cache_builds = True

    # -- attribute forwarding ----------------------------------------------

    def __getattr__(self, name: str):
        base = self.__dict__.get("_base")
        if base is None:
            raise AttributeError(name)
        return getattr(base, name)

    def __setattr__(self, name: str, value) -> None:
        base = self.__dict__.get("_base")
        if base is not None and name in self._FORWARD:
            setattr(base, name, value)
        else:
            object.__setattr__(self, name, value)

    # -- Evaluator interface -----------------------------------------------

    def elapsed(self) -> float:
        return self._base.elapsed()

    def evaluate(self, params: Mapping[str, int]) -> MeasureResult:
        full = int(self._base.repeat)
        probe = self.policy.probe_repeats
        if full <= probe:
            result = self._base.evaluate(params)
            self.n_full_direct += 1
            self._note_trusted(result)
            return result
        probe_result = self._measure(params, probe)
        self.n_probed += 1
        if not probe_result.ok:
            # Failed trials never reach full fidelity.
            return self._terminate(probe_result, failed=True)
        decision = self.policy.decide(probe_result.costs, self._incumbent_value())
        if not decision.promote:
            return self._terminate(probe_result, decision=decision)
        return self._promote(params, probe_result, full - probe)

    # -- internals ---------------------------------------------------------

    def _incumbent_value(self) -> float | None:
        return None if math.isinf(self._incumbent) else self._incumbent

    def _note_trusted(self, result: MeasureResult) -> None:
        """Track the best full-fidelity mean as the promotion incumbent."""
        if result.ok and result.costs:
            self._incumbent = min(self._incumbent, result.mean_cost)

    def _measure(self, params: Mapping[str, int], repeats: int) -> MeasureResult:
        base = self._base
        saved = base.repeat
        base.repeat = repeats
        try:
            return base.evaluate(params)
        finally:
            base.repeat = saved

    def _terminate(
        self,
        probe_result: MeasureResult,
        decision: FidelityDecision | None = None,
        failed: bool = False,
    ) -> MeasureResult:
        probe_result.fidelity = "probe"
        probe_result.extra["fidelity_repeats"] = float(len(probe_result.costs))
        self.n_early_stopped += 1
        tel = get_telemetry()
        if tel.enabled:
            tel.emit(
                TrialPruned(
                    config=dict(probe_result.config),
                    estimate=probe_result.mean_cost,
                    bound=decision.lower_bound if decision else math.inf,
                    incumbent=self._incumbent_value(),
                    limit=decision.limit if decision else math.inf,
                    elapsed=probe_result.timestamp,
                    source="fidelity",
                    reason="failed probe" if failed else (decision.reason if decision else ""),
                )
            )
        return probe_result

    def _promote(
        self,
        params: Mapping[str, int],
        probe_result: MeasureResult,
        extra_repeats: int,
    ) -> MeasureResult:
        rest = self._measure(params, extra_repeats)
        return self._merge(probe_result, rest)

    def _merge(self, probe_result: MeasureResult, rest: MeasureResult) -> MeasureResult:
        if "charged_compile" in probe_result.extra:
            # The trial paid the probe's build; the top-up reuses it.
            rest.extra["charged_compile"] = probe_result.extra[
                "charged_compile"
            ] + rest.extra.get("charged_compile", 0.0)
        if not rest.ok:
            # The top-up failed: the trial as a whole is a failure.
            rest.fidelity = "promoted"
            return rest
        merged = MeasureResult(
            config=probe_result.config,
            costs=tuple(probe_result.costs) + tuple(rest.costs),
            compile_time=probe_result.compile_time,
            timestamp=rest.timestamp,
            error=None,
            extra={**probe_result.extra, **rest.extra},
            fidelity="promoted",
            backend=rest.backend or probe_result.backend,
        )
        merged.extra["fidelity_repeats"] = float(len(merged.costs))
        self.n_promoted += 1
        self._note_trusted(merged)
        tel = get_telemetry()
        if tel.enabled:
            tel.emit(
                TrialPromoted(
                    config=dict(merged.config),
                    probe_mean=probe_result.mean_cost,
                    runtime=merged.mean_cost,
                    probe_repeats=len(probe_result.costs),
                    total_repeats=len(merged.costs),
                    elapsed=merged.timestamp,
                )
            )
        return merged

    def fidelity_stats(self) -> dict[str, float]:
        """Scheduler counters (probe/promote/terminate accounting)."""
        return {
            "probed": float(self.n_probed),
            "promoted": float(self.n_promoted),
            "early_stopped": float(self.n_early_stopped),
            "full_direct": float(self.n_full_direct),
        }
