"""BO on adversarial spaces: tiny, single-point and empty spaces.

The optimizer must stay correct when the space is smaller than the budget or
degenerate, and refuse a space with nothing to tune.
"""

import pytest

from repro.common.errors import SpaceError
from repro.configspace import ConfigurationSpace, OrdinalHyperparameter
from repro.ytopt import Optimizer


class TestTinySpaces:
    def test_single_point_space(self):
        cs = ConfigurationSpace(seed=0)
        cs.add_hyperparameter(OrdinalHyperparameter("k", [7]))
        opt = Optimizer(cs, n_initial_points=2, seed=0)
        for _ in range(4):
            c = opt.ask()
            assert dict(c) == {"k": 7}
            opt.tell(c, 1.0)

    def test_space_smaller_than_budget(self):
        cs = ConfigurationSpace(seed=0)
        cs.add_hyperparameter(OrdinalHyperparameter("a", [1, 2, 3]))
        opt = Optimizer(cs, n_initial_points=2, seed=0)
        seen = []
        for _ in range(9):  # 3x the space size
            c = opt.ask()
            seen.append(c["a"])
            opt.tell(c, float(c["a"]))
        # The 3 distinct values appear; exhaustion falls back to re-sampling
        # without crashing.
        assert set(seen) == {1, 2, 3}

    def test_two_point_space_finds_min(self):
        cs = ConfigurationSpace(seed=1)
        cs.add_hyperparameter(OrdinalHyperparameter("a", [10, 20]))
        opt = Optimizer(cs, n_initial_points=2, seed=1)
        for _ in range(2):
            c = opt.ask()
            opt.tell(c, float(c["a"]))
        assert opt.best()[0] == {"a": 10}

    def test_empty_space_rejected(self):
        with pytest.raises(SpaceError, match="no hyperparameters"):
            Optimizer(ConfigurationSpace(seed=0), seed=0)


class TestUnseenSampling:
    """`_sample_unseen` on small finite spaces: enumerate, don't collide.

    Rejection sampling alone would eventually propose duplicates while unseen
    configurations remain; the enumeration fallback guarantees every point of
    a small space is proposed exactly once before any repeat.
    """

    @staticmethod
    def _space(seed=0):
        cs = ConfigurationSpace(seed=seed)
        cs.add_hyperparameters(
            [
                OrdinalHyperparameter("a", [1, 2, 3, 4]),
                OrdinalHyperparameter("b", [10, 20, 30]),
            ]
        )
        return cs

    def test_no_duplicates_until_space_exhausted(self):
        cs = self._space(seed=0)
        opt = Optimizer(cs, n_initial_points=12, seed=0)
        seen = set()
        for _ in range(12):  # exactly the space size
            c = opt.ask()
            key = (c["a"], c["b"])
            assert key not in seen, f"duplicate {key} before exhaustion"
            seen.add(key)
            opt.tell(c, float(c["a"] + c["b"]))
        assert len(seen) == 12
        # Exhausted: the next ask re-samples (a duplicate) instead of raising.
        c = opt.ask()
        assert (c["a"], c["b"]) in seen

    def test_enumeration_fallback_is_deterministic(self):
        def run():
            opt = Optimizer(self._space(seed=3), n_initial_points=12, seed=3)
            out = []
            for _ in range(12):
                c = opt.ask()
                out.append((c["a"], c["b"]))
                opt.tell(c, 1.0 + c["a"])
            return out

        assert run() == run()

    def test_batch_exclude_respects_unseen(self):
        # One batch covering the whole space: every pick distinct.
        opt = Optimizer(self._space(seed=1), n_initial_points=12, seed=1)
        batch = opt.ask_batch(12)
        assert len({(c["a"], c["b"]) for c in batch}) == 12
