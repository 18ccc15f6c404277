"""Tests for constant-liar batch proposals."""

import pytest

from repro.common.errors import TuningError
from repro.configspace import ConfigurationSpace, OrdinalHyperparameter
from repro.ytopt import Optimizer


def _space(seed=None):
    cs = ConfigurationSpace(seed=seed)
    cs.add_hyperparameters(
        [
            OrdinalHyperparameter("a", list(range(12))),
            OrdinalHyperparameter("b", list(range(12))),
        ]
    )
    return cs


def _cost(cfg):
    return 1.0 + (cfg["a"] - 6) ** 2 + (cfg["b"] - 3) ** 2


class TestAskBatch:
    def test_batch_distinct(self):
        opt = Optimizer(_space(seed=0), n_initial_points=4, seed=0)
        batch = opt.ask_batch(6)
        keys = {(c["a"], c["b"]) for c in batch}
        assert len(keys) == 6

    def test_lies_retracted(self):
        opt = Optimizer(_space(seed=0), n_initial_points=4, seed=0)
        opt.tell({"a": 0, "b": 0}, 45.0)
        before = opt.n_told
        opt.ask_batch(5)
        assert opt.n_told == before  # no lie left behind

    def test_real_tells_after_batch(self):
        opt = Optimizer(_space(seed=1), n_initial_points=4, seed=1)
        for _ in range(4):
            batch = opt.ask_batch(4)
            for c in batch:
                opt.tell(c, _cost(c))
        cfg, cost = opt.best()
        assert cost == min(_cost(c) for c in [cfg]) or cost >= 1.0
        assert opt.n_told == 16

    def test_batch_does_not_repeat_told(self):
        opt = Optimizer(_space(seed=2), n_initial_points=2, seed=2)
        seen = set()
        for _ in range(6):
            for c in opt.ask_batch(4):
                key = (c["a"], c["b"])
                assert key not in seen
                seen.add(key)
                opt.tell(c, _cost(c))

    def test_bad_size_rejected(self):
        with pytest.raises(TuningError):
            Optimizer(_space(), seed=0).ask_batch(0)

    def test_no_lie_before_first_observation(self):
        """With an empty history there is no incumbent to lie with: the first
        batch is pure unseen sampling — the surrogate must never be touched
        and no phantom tell may remain."""

        class _Untouchable:
            def fit(self, X, y):
                raise AssertionError("surrogate fit before any real tell")

            def predict(self, X):
                raise AssertionError("surrogate predict before any real tell")

        opt = Optimizer(_space(seed=7), surrogate=_Untouchable(),
                        n_initial_points=2, seed=7)
        batch = opt.ask_batch(8)  # larger than n_initial_points on purpose
        assert len({(c["a"], c["b"]) for c in batch}) == 8
        assert opt.n_told == 0

    def test_first_batch_matches_sequential_asks(self):
        # Pure unseen sampling: the batch is the same configs sequential
        # ask() would have produced from the same seed.
        batch = Optimizer(_space(seed=4), n_initial_points=8, seed=4).ask_batch(6)
        opt = Optimizer(_space(seed=4), n_initial_points=8, seed=4)
        seq = [opt.ask() for _ in range(6)]
        assert [dict(c) for c in batch] == [dict(c) for c in seq]

    def test_model_phase_batch(self):
        # Batch asks in the model phase must work after the surrogate is fit.
        opt = Optimizer(_space(seed=3), n_initial_points=3, seed=3)
        for _ in range(3):
            c = opt.ask()
            opt.tell(c, _cost(c))
        batch = opt.ask_batch(5)
        assert len(batch) == 5
        for c in batch:
            opt.tell(c, _cost(c))
        assert opt.n_told == 8

    def test_retracted_lie_keeps_a_repeated_observation_told(self):
        # On an exhausted space every lie repeats a told configuration:
        # retracting it must not forget the real observation of it.
        cs = ConfigurationSpace(seed=0)
        cs.add_hyperparameter(OrdinalHyperparameter("a", [1, 2, 3]))
        opt = Optimizer(cs, n_initial_points=1, seed=0)
        for a in (1, 2, 3):
            opt.tell({"a": a}, float(a))
        opt.ask_batch(2)
        assert opt._codes == [0, 1, 2]
        assert opt._told == {0, 1, 2}
