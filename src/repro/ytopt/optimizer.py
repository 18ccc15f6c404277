"""The ask/tell Bayesian optimizer at the heart of the proposed framework.

Implements the loop of the paper's §2.2 / Figure 3: an initial design of random
configurations, then — once enough observations exist — a Random-Forest
surrogate refit on all (configuration, runtime) pairs and a candidate pool
scored with the LCB acquisition. Candidates mix global random samples
(exploration) with neighbors of the incumbent (exploitation), the balance the
paper attributes to LCB over the surrogate's mean and uncertainty.

``ask()`` never returns a configuration that was already told (duplicate
evaluations waste the budget on finite tiling spaces); when the whole space has
been observed it falls back to re-sampling.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Mapping, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.common.errors import TuningError
from repro.common.rng import ensure_rng
from repro.configspace import Configuration, ConfigurationSpace
from repro.telemetry.context import get_telemetry
from repro.telemetry.events import SurrogateFitted
from repro.ytopt.acquisition import AcquisitionFunction, LowerConfidenceBound
from repro.ytopt.surrogate import RandomForestSurrogate, Surrogate

if TYPE_CHECKING:  # avoid repro.transfer <-> repro.ytopt import cycle
    from repro.transfer.seed import TransferSeed


class RefitSchedule:
    """Geometric surrogate-refit schedule for the pipelined tuning loop.

    Refit after every observation while the corpus is small (``n <=
    dense_until`` — early fits are cheap and each observation moves the
    model), then only when the corpus has grown by ``growth``× since the
    last fit. A forest fit is O(n log n) per tree, so refitting every tell
    makes the whole loop quadratic; the geometric schedule amortizes total
    fit cost to O(n log n) while the model lags the data by at most a
    constant factor.

    Note the RF fit consumes its persistent RNG, so *skipping* fits changes
    the random state later fits see: trajectories under a schedule are
    deterministic but not identical to ``refit_every=1``. The escape hatch
    for byte-identical trajectories is simply not installing a schedule
    (``refit_every=1``), which is the default of the serial loop (see
    :func:`refit_policy`).
    """

    def __init__(self, dense_until: int = 32, growth: float = 1.5) -> None:
        if dense_until < 1:
            raise TuningError(f"dense_until must be >= 1, got {dense_until}")
        if growth <= 1.0:
            raise TuningError(f"growth must be > 1.0, got {growth}")
        self.dense_until = dense_until
        self.growth = growth

    def due(self, n_told: int, fitted_at: int) -> bool:
        """Should the surrogate refit at corpus size ``n_told``?

        ``fitted_at`` is the corpus size of the last completed fit.
        """
        if n_told <= self.dense_until:
            return True
        return n_told >= int(np.ceil(fitted_at * self.growth))

    def __repr__(self) -> str:
        return f"RefitSchedule(dense_until={self.dense_until}, growth={self.growth:g})"


def refit_policy(
    refit_every: int | None, pipeline: bool
) -> "tuple[int, RefitSchedule | None]":
    """``(refit_interval, refit_schedule)`` for the default Optimizer of a
    tuning loop with these knobs.

    ``refit_every=None`` takes the loop's default: every observation for the
    serial loop, the geometric :class:`RefitSchedule` under the pipeline.
    ``0`` forces the geometric schedule; ``1`` refits on every observation
    (the byte-identical escape hatch); ``k > 1`` every ``k`` observations.
    """
    if refit_every is not None and refit_every < 0:
        raise TuningError(f"refit_every must be >= 0, got {refit_every}")
    if refit_every is None:
        refit_every = 0 if pipeline else 1
    if refit_every == 0:
        return 1, RefitSchedule()
    return refit_every, None


class Optimizer:
    """Sequential model-based optimizer (minimizes the told cost)."""

    def __init__(
        self,
        space: ConfigurationSpace,
        surrogate: Surrogate | None = None,
        acquisition: AcquisitionFunction | None = None,
        n_initial_points: int = 10,
        n_candidates: int = 1000,
        n_neighbor_candidates: int = 32,
        refit_interval: int = 1,
        #: Optional :class:`RefitSchedule` gating model-phase refits (the
        #: pipelined loop's amortized-fit mode). None — the default — keeps
        #: the legacy behavior: refit every ``refit_interval`` observations,
        #: byte-identical to all pre-pipeline trajectories.
        refit_schedule: "RefitSchedule | None" = None,
        seed: int | None = None,
        #: Transfer learning (see :class:`repro.transfer.TransferSeed`): the
        #: seeder's top-ranked configurations replace the random initial
        #: design, and — when ``transfer_bias`` > 0 — its meta-surrogate
        #: scores are blended into acquisition ranking with a weight that
        #: decays as real observations accumulate.
        transfer_seed: "TransferSeed | None" = None,
        transfer_bias: float = 0.0,
    ) -> None:
        if n_initial_points < 1:
            raise TuningError(f"n_initial_points must be >= 1, got {n_initial_points}")
        if n_candidates < 1:
            raise TuningError(f"n_candidates must be >= 1, got {n_candidates}")
        if refit_interval < 1:
            raise TuningError(f"refit_interval must be >= 1, got {refit_interval}")
        self.space = space
        self.surrogate = surrogate if surrogate is not None else RandomForestSurrogate(seed=seed)
        self.acquisition = (
            acquisition if acquisition is not None else LowerConfidenceBound()
        )
        self.n_initial_points = n_initial_points
        self.n_candidates = n_candidates
        self.n_neighbor_candidates = n_neighbor_candidates
        self.refit_interval = refit_interval
        self.refit_schedule = refit_schedule
        if transfer_bias < 0:
            raise TuningError(f"transfer_bias must be >= 0, got {transfer_bias}")
        self.transfer_seed = transfer_seed
        self.transfer_bias = transfer_bias
        self._seed_queue: "list[dict[str, int]] | None" = None
        self._rng = ensure_rng(seed)
        if seed is not None:
            self.space.seed(seed)

        self._X: list[np.ndarray] = []
        self._y: list[float] = []
        self._configs: list[Configuration] = []
        self._told: set[Configuration] = set()
        # Registry spaces draw their candidate pool as integer index rows
        # (see _index_pool); _codes mirrors _configs as their int64 codes.
        self._index = space.index_view()
        self._codes: list[int] = []
        self._asked: list[Configuration] = []
        self._since_fit = 0
        self._fitted = False
        self._fitted_at = 0  # corpus size at the last completed fit
        self._speculating = False
        self._spec_token: dict | None = None
        self.n_refits = 0
        self.n_refits_skipped = 0

    # -- API ------------------------------------------------------------

    @property
    def n_told(self) -> int:
        return len(self._y)

    def ask(self) -> Configuration:
        """Propose the next configuration to evaluate."""
        if self.n_told < self.n_initial_points:
            config = self._next_seeded()
            if config is None:
                config = self._sample_unseen()
        elif self._degenerate_history():
            # Constant observed costs (single-point spaces, all-failure runs):
            # the surrogate refuses to fit (see RandomForestSurrogate.fit) and
            # could not rank candidates anyway — keep exploring at random.
            config = self._sample_unseen()
        else:
            self._maybe_refit()
            config = self._suggest()
        self._asked.append(config)
        return config

    def ask_batch(self, n: int) -> list[Configuration]:
        """Propose ``n`` distinct configurations (constant-liar batching).

        Supports parallel evaluation (ytopt's async mode): after each pick the
        optimizer is temporarily told the incumbent cost as a "lie", pushing
        the next pick away from the same region; all lies are retracted before
        returning, so the caller tells only real measurements.
        """
        if n < 1:
            raise TuningError(f"batch size must be >= 1, got {n}")
        if not self._y:
            # No real observation yet: there is no incumbent to lie with, and
            # a made-up constant would anchor the surrogate's scale. All picks
            # are random anyway in this phase — sample unseen directly,
            # excluding earlier picks of this batch.
            picks = []
            picked: set[Configuration] = set()
            for _ in range(n):
                config = self._next_seeded(exclude=picked)
                if config is None:
                    config = self._sample_unseen(exclude=picked)
                picked.add(config)
                picks.append(config)
                self._asked.append(config)
            return picks
        lie = min(self._y)
        picks = []
        for _ in range(n):
            config = self.ask()
            picks.append(config)
            self.tell(config, lie)
        for _ in picks:
            self._retract_last()
        return picks

    def speculate(
        self,
        n: int = 1,
        will_tell: int = 0,
        exclude: "tuple[Configuration, ...] | list[Configuration]" = (),
    ) -> list[Configuration] | None:
        """Side-effect-free preview of the ask that follows ``will_tell`` tells.

        The pipelined AMBS loop calls this while wave *k* is still measuring to
        pre-compile wave *k+1*'s candidates. Returns the configuration(s) the
        real ``ask()``/``ask_batch()`` is expected to propose once the
        ``will_tell`` in-flight observations (``exclude``) land, or None when
        the proposal provably depends on those pending values — a surrogate
        refit is due, the initial/model phase boundary is being crossed, or
        the surrogate is unfitted/degenerate. Every RNG stream, the asked
        log, and the transfer-seed queue are snapshotted and restored, so a
        speculation never perturbs the real trajectory; in particular the
        surrogate is **never** fit here (``_maybe_refit`` raises if reached),
        which is what keeps ``refit_every=1`` runs byte-identical with
        pipelining on.
        """
        if n < 1:
            raise TuningError(f"speculation width must be >= 1, got {n}")
        n_after = self.n_told + will_tell
        if (self.n_told < self.n_initial_points) != (n_after < self.n_initial_points):
            return None  # the real ask crosses the random -> model boundary
        if n_after >= self.n_initial_points:
            if not self._fitted or self._degenerate_history():
                return None
            if self._refit_due_within(will_tell, n):
                return None
        elif n > 1 and not self._y and will_tell > 0:
            # ask_batch branches on "any observation yet": by real-ask time
            # the in-flight wave has landed and the constant-liar path runs
            # instead of the cold path speculation would take here.
            return None

        exclude_keys = frozenset(c.get_array().tobytes() for c in exclude)
        space_state = self.space._rng.bit_generator.state
        rng_state = self._rng.bit_generator.state
        asked_len = len(self._asked)
        seed_queue = None if self._seed_queue is None else list(self._seed_queue)
        fitted, since_fit = self._fitted, self._since_fit
        self._speculating = True
        self._spec_token = None
        token = None
        try:
            if n > 1:
                picks = self.ask_batch(n)
            elif self.n_told < self.n_initial_points:
                # Replicate ask()'s initial-design branch, additionally
                # excluding the in-flight configurations — they will be in
                # ``_told`` by the time the real ask runs.
                excl = set(exclude)
                config = self._next_seeded(exclude=excl)
                if config is None:
                    config = self._sample_unseen(exclude=excl)
                picks = [config]
            else:
                picks = [self._suggest(exclude=exclude)]
            # Everything confirm_speculation() needs to prove the real ask
            # would replay this proposal exactly (see there for the argument).
            token = {
                "picks": list(picks),
                "n_told": self.n_told,
                "will_tell": will_tell,
                "exclude_keys": exclude_keys,
                "n_refits": self.n_refits,
                "degenerate": self._degenerate_history(),
                "min_y": min(self._y) if self._y else None,
                "top3": self._top_incumbent_keys(),
                "space_state": self.space._rng.bit_generator.state,
                "rng_state": self._rng.bit_generator.state,
                "seed_queue": (
                    None if self._seed_queue is None else list(self._seed_queue)
                ),
            }
        except TuningError:
            picks = None
        finally:
            self._speculating = False
            self.space._rng.bit_generator.state = space_state
            self._rng.bit_generator.state = rng_state
            del self._asked[asked_len:]
            self._seed_queue = seed_queue
            self._fitted, self._since_fit = fitted, since_fit
        self._spec_token = token
        return picks

    def confirm_speculation(self, n: int = 1) -> list[Configuration] | None:
        """Adopt the last speculation as the real ask, if provably identical.

        A speculation is an RNG-snapshotted replay of the ask that follows the
        in-flight wave; re-running that ask now would redo the exact same
        candidate sampling and scoring whenever every input it reads is
        unchanged since the speculation: the surrogate was not refit (and none
        is due now), the observed minimum and the top-incumbent neighbor seeds
        are the same configurations, the landed observations are exactly the
        wave the speculation excluded, and no transfer prior re-weights the
        ranking as ``n_told`` grows. Under those checks this method skips the
        recomputation outright: it restores the *post*-speculation RNG/seed
        states (identical to what the replay would produce), logs the picks as
        asked, and returns them — taking the surrogate ask off the critical
        path entirely. Any failed check returns None and the caller falls back
        to a normal ``ask()``/``ask_batch()``, so this is a pure fast path,
        never a behavior change.
        """
        token, self._spec_token = self._spec_token, None
        if token is None or len(token["picks"]) != n:
            return None
        if self.n_told != token["n_told"] + token["will_tell"]:
            return None
        landed = {arr.tobytes() for arr in self._X[token["n_told"] :]}
        if landed != set(token["exclude_keys"]):
            return None
        if self.transfer_seed is not None and self.transfer_bias > 0:
            return None
        if self.n_refits != token["n_refits"]:
            return None
        model_phase = self.n_told >= self.n_initial_points
        if model_phase and self._degenerate_history() != token["degenerate"]:
            return None
        if model_phase and not token["degenerate"]:
            if self._refit_due_within(0, n):
                return None
            if min(self._y) != token["min_y"]:
                return None
            if self._top_incumbent_keys() != token["top3"]:
                return None
        if any(
            c.get_array().tobytes() in landed for c in token["picks"]
        ):
            return None  # the real ask would have deduplicated these away
        self.space._rng.bit_generator.state = token["space_state"]
        self._rng.bit_generator.state = token["rng_state"]
        self._seed_queue = token["seed_queue"]
        self._asked.extend(token["picks"])
        if n > 1:
            # Mirror ask_batch's net side effects: each lie bumps _since_fit
            # and the final retraction forces a clean refit later.
            self._since_fit += n
            self._fitted = False
        if model_phase and not token["degenerate"] and self.refit_schedule is not None:
            self.n_refits_skipped += n  # the skipped _maybe_refit calls
        return list(token["picks"])

    def _top_incumbent_keys(self) -> tuple[bytes, ...]:
        """Encoded keys of the incumbents ``_suggest`` seeds neighbors from,
        in selection order — part of confirm_speculation's identity check."""
        if not self._y:
            return ()
        order = np.argsort(self._y)[:3]
        return tuple(self._configs[int(i)].get_array().tobytes() for i in order)

    def _refit_due_within(self, first: int, count: int) -> bool:
        """Would any of the next ``count`` asks refit, the first of which runs
        after ``first`` more real observations? Conservative (may say True
        when the fit would be skipped), never falsely False — the
        ``_speculating`` guard in ``_maybe_refit`` backstops any miss."""
        if not self._fitted:
            return True
        if self.refit_schedule is not None:
            base = len(self._y) + first
            return any(
                self.refit_schedule.due(base + i, self._fitted_at)
                for i in range(count)
            )
        return self._since_fit + first + count - 1 >= self.refit_interval

    def _retract_last(self) -> None:
        self._X.pop()
        self._y.pop()
        config = self._configs.pop()
        self._told.discard(config)
        if self._index is not None:
            self._codes.pop()
        self._fitted = False  # surrogate saw lies: force a clean refit

    def tell(self, config: "Configuration | Mapping[str, int]", cost: float) -> None:
        """Record the measured cost of a configuration."""
        if not isinstance(config, Configuration):
            config = Configuration(self.space, dict(config))
        if not np.isfinite(cost):
            raise TuningError(f"cost must be finite, got {cost}")
        arr = config.get_array()
        self._X.append(arr)
        self._y.append(float(cost))
        self._configs.append(config)
        self._told.add(config)
        if self._index is not None:
            self._codes.append(int(self._index.codes(self._index.row_of(config))))
        self._since_fit += 1

    def best(self) -> tuple[dict[str, int], float]:
        """Incumbent configuration and its cost."""
        if not self._y:
            raise TuningError("best() called before any tell()")
        i = int(np.argmin(self._y))
        return self._configs[i].get_dictionary(), self._y[i]

    def predict_cost(
        self, config: "Configuration | Mapping[str, int]", z: float = 1.0
    ) -> tuple[float, float] | None:
        """Surrogate cost prediction ``(mean, lower bound)`` in cost units.

        Returns None while the optimizer is still in its initial random phase
        (too few observations for the surrogate to be meaningful). Predictions
        from log-cost surrogates are mapped back through ``exp`` so callers
        compare directly against measured runtimes. ``z`` scales how many
        standard deviations below the mean the lower bound sits.
        """
        if self.n_told < self.n_initial_points:
            return None
        if self._degenerate_history():
            return None  # constant costs: nothing for a surrogate to rank
        self._maybe_refit()  # ask_batch retracts lies and clears _fitted
        if not isinstance(config, Configuration):
            config = Configuration(self.space, dict(config))
        X = config.get_array().reshape(1, -1)
        mean, std = self.surrogate.predict(X)
        m, s = float(mean[0]), float(std[0])
        if getattr(self.surrogate, "log_cost", False):
            return float(np.exp(m)), float(np.exp(m - z * s))
        return m, m - z * s

    # -- internals ----------------------------------------------------------

    #: Finite spaces up to this size are enumerated outright when rejection
    #: sampling keeps colliding — a duplicate proposal wastes a whole
    #: measurement, enumeration costs microseconds.
    _ENUMERATE_LIMIT = 8192

    def _next_seeded(
        self, exclude: "set[Configuration] | frozenset" = frozenset()
    ) -> Configuration | None:
        """Pop the next unused transfer-seeded configuration, if any.

        The queue is the seeder's ranked initial design (best predicted
        first), sized to the initial-design budget. Configurations already
        told — warm-start records, resumed runs — are skipped rather than
        re-proposed. Returns None once exhausted (or with no seeder), which
        sends the caller to the usual random path; the session space RNG is
        never consulted for a seeded pick, so cold and seeded runs stay
        stream-compatible for everything past the initial design.
        """
        if self.transfer_seed is None:
            return None
        if self._seed_queue is None:
            self._seed_queue = self.transfer_seed.initial_design(
                self.n_initial_points
            )
        while self._seed_queue:
            config = Configuration(self.space, self._seed_queue.pop(0))
            if config not in self._told and config not in exclude:
                return config
        return None

    def _sample_unseen(
        self, exclude: "set[Configuration] | frozenset" = frozenset()
    ) -> Configuration:
        def fresh(c: Configuration) -> bool:
            return c not in self._told and c not in exclude

        for _ in range(64):
            c = self.space.sample_configuration()
            if fresh(c):
                return c
        # 64 straight collisions: the space is either nearly exhausted or
        # small. Enumerate small finite spaces and pick an unseen config
        # directly instead of silently proposing a duplicate.
        size = self.space.size()
        if np.isfinite(size) and size <= self._ENUMERATE_LIMIT:
            remaining = [
                c for c in self.space.enumerate_configurations() if fresh(c)
            ]
            if remaining:
                return remaining[int(self._rng.integers(len(remaining)))]
            # Fully exhausted: duplicates are unavoidable; re-sample so long
            # runs on tiny spaces keep making progress instead of crashing.
            return self.space.sample_configuration()
        # Huge space: keep drawing — deterministic given the space RNG state.
        for _ in range(4096):
            c = self.space.sample_configuration()
            if fresh(c):
                return c
        raise TuningError(
            "could not sample an unseen configuration after 4160 draws; "
            "the space appears to be exhausted"
        )

    def _degenerate_history(self) -> bool:
        """True when the observed costs cannot train a surrogate (all equal)."""
        return len(self._y) < 2 or all(v == self._y[0] for v in self._y)

    def _maybe_refit(self) -> None:
        if self._fitted and self._since_fit < self.refit_interval:
            return
        if (
            self._fitted
            and self.refit_schedule is not None
            and not self.refit_schedule.due(len(self._y), self._fitted_at)
        ):
            if not self._speculating:
                # Real skips are counted; speculative replays of the same
                # decision are mirrored by confirm_speculation() instead.
                self.n_refits_skipped += 1
            return
        if self._speculating:
            # A fit inside speculate() would consume the surrogate's RNG and
            # desynchronize every later real fit — speculation must abstain
            # (see speculate()); reaching here means a guard was missed.
            raise TuningError("surrogate refit attempted during speculation")
        tel = get_telemetry()
        t0 = time.perf_counter()
        with tel.span("fit"):
            self.surrogate.fit(np.vstack(self._X), np.asarray(self._y))
        self._fitted = True
        self._since_fit = 0
        self._fitted_at = len(self._y)
        self.n_refits += 1
        if tel.enabled:
            tel.emit(
                SurrogateFitted(
                    n_samples=len(self._y),
                    wall_time=time.perf_counter() - t0,
                )
            )

    def _suggest(
        self, exclude: "Sequence[Configuration]" = ()
    ) -> Configuration:
        """Score the candidate pool with one surrogate predict and return the
        acquisition's argmin.

        The pool holds no told configuration and no configuration of
        ``exclude`` — in-flight ones, which speculation expects to be told by
        the real ask's time — and no configuration twice.
        """
        if self._index is not None:
            X, candidate = self._index_pool(exclude)
        else:
            X, candidate = self._config_pool(exclude)
        if not len(X):
            return self._sample_unseen()
        mean, std = self.surrogate.predict(X)
        scores = self.acquisition.score(mean, std, best_y=float(np.min(self._log_y())))
        weight = self._transfer_weight()
        if weight > 0:
            scores = self._apply_transfer_bias(
                scores, weight, [candidate(i).get_dictionary() for i in range(len(X))]
            )
        return candidate(int(np.argmin(scores)))

    def _index_pool(
        self, exclude: "Sequence[Configuration]"
    ) -> "tuple[np.ndarray, Callable[[int], Configuration]]":
        """The candidate pool of a space with an index view: its encoded
        rows, and a function building the configuration of row ``i``.

        The global pool is one ``(n_candidates, d)`` index draw, the RNG
        stream of ``n_candidates`` ``sample_configuration()`` calls. A row
        is dropped when its code is told, in flight, or an earlier row's:
        the first occurrence wins and pool order is kept. The neighbor rows
        of :meth:`_neighbor_picks` follow. Only the configuration the caller
        asks for is ever built.
        """
        ix = self._index
        rows = ix.sample(self.n_candidates)
        taken = self._codes + [int(ix.codes(ix.row_of(c))) for c in exclude]
        codes = ix.codes(rows)
        # np.unique's return_index is each code's first row; sorting those
        # rows keeps pool order.
        _, first = np.unique(codes, return_index=True)
        keep = np.sort(first[~np.isin(codes[first], taken)])
        seen = set(taken)
        seen.update(codes[keep].tolist())

        def neighbors(i: int):
            for c in self.space.neighbors(self._configs[i], self._rng):
                row = ix.row_of(c)
                yield int(ix.codes(row)), row

        picks = self._neighbor_picks(len(keep), seen, neighbors)
        rows = np.concatenate([rows[keep], *(p[None] for p in picks)])
        return ix.encode(rows), lambda i: ix.configuration(rows[i])

    def _config_pool(
        self, exclude: "Sequence[Configuration]"
    ) -> "tuple[np.ndarray, Callable[[int], Configuration]]":
        """The candidate pool of any other space (conditions, weights,
        continuous ranges), as :meth:`_index_pool` returns it.

        The global pool is one batch draw, de-duplicated by encoded-row
        bytes: the encoding is injective per hyperparameter and inactive
        slots are out of range, so equal rows are equal configurations.
        """
        candidates: list[Configuration] = []
        rows: list[np.ndarray] = []
        seen = {x.tobytes() for x in self._X}
        seen.update(c.get_array().tobytes() for c in exclude)
        batch, X = self.space.sample_configuration_batch(self.n_candidates)
        for i, c in enumerate(batch):
            key = X[i].tobytes()
            if key not in seen:
                seen.add(key)
                candidates.append(c)
                rows.append(X[i])

        def neighbors(i: int):
            for c in self.space.neighbors(self._configs[i], self._rng):
                yield c.get_array().tobytes(), c

        candidates += self._neighbor_picks(len(candidates), seen, neighbors)
        rows += [c.get_array() for c in candidates[len(rows):]]
        X = np.vstack(rows) if rows else np.empty((0, len(self.space)))
        return X, candidates.__getitem__

    def _neighbor_picks(self, n_pool: int, seen: set, neighbors) -> list:
        """Exploitation candidates: neighbors of the three best incumbents.

        ``neighbors(i)`` yields ``(key, candidate)`` pairs for told
        configuration ``i``. A candidate whose key is not in ``seen`` is
        picked (and its key added) until the pool of ``n_pool`` global
        candidates reaches ``n_candidates + n_neighbor_candidates``; each
        incumbent's neighbors are listed whole, so they draw from the
        optimizer RNG even when the budget stops the picks part-way.
        """
        picks: list = []
        budget = self.n_candidates + self.n_neighbor_candidates
        for i in np.argsort(self._y)[:3]:
            for key, candidate in list(neighbors(int(i))):
                if key not in seen:
                    seen.add(key)
                    picks.append(candidate)
                    if n_pool + len(picks) >= budget:
                        break
            if n_pool + len(picks) >= budget:
                break
        return picks

    #: Per-observation decay of the transfer prior's weight past the initial
    #: design: after ~15 real measurements the in-session surrogate has seen
    #: enough of *this* task that the cross-task prior should stop steering.
    _TRANSFER_DECAY = 0.85

    def _transfer_weight(self) -> float:
        """Weight of the transfer prior in this ask's ranking:
        ``transfer_bias * decay^(n_told - n_initial_points)`` — strong right
        after the initial design, gone a couple dozen evaluations later —
        and 0 without a prior or once the weight falls below 1e-3."""
        if self.transfer_seed is None or self.transfer_bias <= 0:
            return 0.0
        weight = self.transfer_bias * (
            self._TRANSFER_DECAY ** max(0, self.n_told - self.n_initial_points)
        )
        return weight if weight >= 1e-3 else 0.0

    def _apply_transfer_bias(
        self, scores: np.ndarray, weight: float, candidates: "list[dict]"
    ) -> np.ndarray:
        """Blend the meta-surrogate prior into the acquisition ranking.

        The prior is standardized across the candidate pool (the meta model
        predicts a different machine-scale than the live measurements, so only
        its *ranking* is trusted) and added with ``weight``.
        """
        prior = self.transfer_seed.score(candidates)
        spread = float(prior.std())
        if spread <= 0:
            return scores
        return scores + weight * (prior - float(prior.mean())) / spread

    def _log_y(self) -> np.ndarray:
        y = np.asarray(self._y)
        if getattr(self.surrogate, "log_cost", False):
            return np.log(np.maximum(y, 1e-30))
        return y

