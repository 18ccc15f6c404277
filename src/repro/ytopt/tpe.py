"""Tree-structured Parzen Estimator: the density-ratio tuner family.

The third surrogate family of the bench registry ("ytopt-tpe"). Where the
forest and GP model *cost as a function of configuration* and rank candidates
by LCB, TPE (Bergstra et al., NeurIPS 2011) models *configurations as a
function of cost*: observations are split at the γ-quantile into a good set
and a bad set, each hyperparameter gets a smoothed categorical density over
its candidate values under both sets, and the next proposal maximizes the
density ratio l(x)/g(x) over candidates drawn from the good density. Told
configurations and candidates are compared by their
:class:`~repro.configspace.space.IndexView` codes; only the pick becomes a
:class:`~repro.configspace.Configuration`.

:class:`TPEOptimizer` is a drop-in for :class:`repro.ytopt.optimizer.Optimizer`
— it implements the same ask / ask_batch / tell / best / predict_cost duck
interface the AMBS loop drives, so it plugs straight into
:class:`~repro.core.framework.BayesianAutotuner` and the tuning service.
Random picks draw from the space RNG and density-ratio candidates from the
optimizer's own RNG, both seeded by ``seed``, so runs are deterministic per
seed.
"""

from __future__ import annotations

from collections.abc import Collection, Mapping

import numpy as np

from repro.common.errors import TuningError
from repro.common.rng import ensure_rng
from repro.configspace import Configuration, ConfigurationSpace


class TPEOptimizer:
    """Ask/tell TPE over a finite configuration space (minimizes cost)."""

    def __init__(
        self,
        space: ConfigurationSpace,
        n_initial_points: int = 10,
        gamma: float = 0.25,
        n_candidates: int = 64,
        prior_weight: float = 1.0,
        seed: int | None = None,
    ) -> None:
        if n_initial_points < 1:
            raise TuningError(f"n_initial_points must be >= 1, got {n_initial_points}")
        if not 0.0 < gamma < 1.0:
            raise TuningError(f"gamma must be in (0, 1), got {gamma}")
        if n_candidates < 1:
            raise TuningError(f"n_candidates must be >= 1, got {n_candidates}")
        if prior_weight <= 0:
            raise TuningError(f"prior_weight must be positive, got {prior_weight}")
        self.space = space
        self.n_initial_points = n_initial_points
        self.gamma = gamma
        self.n_candidates = n_candidates
        self.prior_weight = prior_weight
        self._rng = ensure_rng(seed)
        if seed is not None:
            self.space.seed(seed)

        self._index = space.index_view()
        self._cardinalities = [int(hp.size()) for hp in space.get_hyperparameters()]

        self._configs: list[Configuration] = []
        self._y: list[float] = []
        self._codes: list[int] = []  # mirrors _configs
        self._told: set[int] = set()

    # -- API (the AMBS optimizer duck interface) --------------------------

    @property
    def n_told(self) -> int:
        return len(self._y)

    def ask(self) -> Configuration:
        if self.n_told < self.n_initial_points:
            return self._sample_unseen()
        return self._suggest()

    def ask_batch(self, n: int) -> list[Configuration]:
        """Propose ``n`` distinct configurations (constant-liar batching)."""
        if n < 1:
            raise TuningError(f"batch size must be >= 1, got {n}")
        picks: list[Configuration] = []
        lie = min(self._y) if self._y else None
        for _ in range(n):
            if lie is None:
                c = self._sample_unseen(exclude={self._index.code_of(p) for p in picks})
            else:
                c = self.ask()
                self.tell(c, lie)
            picks.append(c)
        if lie is not None:
            for _ in picks:
                self._retract_last()
        return picks

    def tell(self, config: "Configuration | Mapping[str, int]", cost: float) -> None:
        if not isinstance(config, Configuration):
            config = Configuration(self.space, dict(config))
        if not np.isfinite(cost):
            raise TuningError(f"cost must be finite, got {cost}")
        code = self._index.code_of(config)
        self._configs.append(config)
        self._y.append(float(cost))
        self._codes.append(code)
        self._told.add(code)

    def _retract_last(self) -> None:
        self._configs.pop()
        self._y.pop()
        code = self._codes.pop()
        if code not in self._codes:
            self._told.discard(code)

    def best(self) -> tuple[dict[str, int], float]:
        if not self._y:
            raise TuningError("best() called before any tell()")
        i = int(np.argmin(self._y))
        return self._configs[i].get_dictionary(), self._y[i]

    def predict_cost(self, config, z: float = 1.0) -> None:
        """TPE has no cost regressor; surrogate pruning is a no-op."""
        return None

    # -- internals --------------------------------------------------------

    def _sample_unseen(self, exclude: Collection[int] = frozenset()) -> Configuration:
        ix = self._index

        def fresh(row: np.ndarray) -> bool:
            code = int(ix.codes(row))
            return code not in self._told and code not in exclude

        for _ in range(64):
            row = ix.sample(1)[0]
            if fresh(row):
                return ix.configuration(row)
        remaining = ix.unseen(self._told | set(exclude))
        if len(remaining):
            return ix.configuration(remaining[int(self._rng.integers(len(remaining)))])
        # Exhausted space: duplicates are unavoidable on long runs.
        return ix.configuration(ix.sample(1)[0])

    def _densities(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-parameter smoothed categorical densities (good, bad)."""
        order = np.argsort(self._y, kind="stable")
        n_good = max(1, int(np.ceil(self.gamma * len(order))))
        good_idx = set(int(i) for i in order[:n_good])
        good_p: list[np.ndarray] = []
        bad_p: list[np.ndarray] = []
        columns = self._index.rows(self._codes).T.tolist()
        for column, card in zip(columns, self._cardinalities):
            g = np.full(card, self.prior_weight)
            b = np.full(card, self.prior_weight)
            for i, slot in enumerate(column):
                (g if i in good_idx else b)[slot] += 1.0
            good_p.append(g / g.sum())
            bad_p.append(b / b.sum())
        return good_p, bad_p

    def _suggest(self) -> Configuration:
        good_p, bad_p = self._densities()
        best_code: int | None = None
        best_ratio = -np.inf
        seen: set[int] = set()
        for _ in range(self.n_candidates):
            row = []
            log_ratio = 0.0
            for g, b in zip(good_p, bad_p):
                slot = int(self._rng.choice(len(g), p=g))
                row.append(slot)
                log_ratio += float(np.log(g[slot]) - np.log(b[slot]))
            code = int(self._index.codes(np.array(row)))
            if code in seen:
                continue
            seen.add(code)
            if code in self._told:
                continue  # duplicate measurements waste finite-space budget
            if log_ratio > best_ratio:
                best_ratio = log_ratio
                best_code = code
        if best_code is None:
            return self._sample_unseen()
        return self._index.configuration(self._index.rows(best_code))
