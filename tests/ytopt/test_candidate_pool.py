"""The optimizer's candidate pool against the reference loop.

The pool is drawn as an integer index matrix, de-duplicated by int64 codes
and extended with the incumbents' ``IndexView.neighbors`` rows
(``Optimizer._index_pool``), in one compiled call or in NumPy. On either
path it must give the pool of ``reference_pool.py`` — the same candidates
in the same order — and leave both RNGs where it leaves them, over random
spaces, told sets and in-flight sets.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.configspace import ConfigurationSpace, OrdinalHyperparameter
from repro.ytopt import Optimizer
from repro.ytopt.surrogate import DummySurrogate
from tests.ml.growers import generator_state, use_grower
from tests.ytopt.reference_pool import reference_pool


def _space(cards, kinds, seed):
    """One hyperparameter per kind: ``numeric`` (powers of two) or
    ``string`` values."""
    cs = ConfigurationSpace(seed=seed)
    for i, (card, kind) in enumerate(zip(cards, kinds)):
        if kind == "numeric":
            values = [2**k for k in range(card)]
        else:
            values = [f"v{k}" for k in range(card)]
        cs.add_hyperparameter(OrdinalHyperparameter(f"P{i}", values))
    return cs


def _optimizer(draw, space, told, seed):
    opt = Optimizer(
        space,
        surrogate=DummySurrogate(),
        seed=seed,
        n_initial_points=1,
        n_candidates=draw(st.integers(1, 80)),
        n_neighbor_candidates=draw(st.integers(0, 8)),
    )
    costs = draw(st.lists(st.floats(0.1, 10.0), min_size=len(told), max_size=len(told)))
    for config, cost in zip(told, costs):
        opt.tell(config, cost)
    return opt


@st.composite
def pool_cases(draw):
    d = draw(st.integers(1, 4))
    cards = draw(st.lists(st.integers(1, 6), min_size=d, max_size=d))
    kind = st.sampled_from(["numeric", "string"])
    kinds = draw(st.lists(kind, min_size=d, max_size=d))
    seed = draw(st.integers(0, 2**16))
    space = _space(cards, kinds, seed)
    every = space.enumerate_configurations()
    pick = st.integers(0, len(every) - 1)
    told = [every[i] for i in draw(st.lists(pick, min_size=1, max_size=len(every) + 3))]
    in_flight = [every[i] for i in draw(st.lists(pick, max_size=4))]
    return _optimizer(draw, space, told, seed), in_flight


def _pool_and_rng_states(opt, build, exclude):
    """Run one pool builder from the optimizer's current RNG states, restore
    them, and return what it built plus the states it left."""
    before = (opt.space._rng.bit_generator.state, opt._rng.bit_generator.state)
    X, candidates = build(exclude)
    after = (generator_state(opt.space._rng), generator_state(opt._rng))
    opt.space._rng.bit_generator.state, opt._rng.bit_generator.state = before
    if not isinstance(candidates, list):
        candidates = [candidates(i) for i in range(len(X))]
    return X, candidates, after


def _index_pool(opt, exclude):
    return opt._index_pool([opt._index.code_of(c) for c in exclude])


def _reference(opt, exclude):
    pool = reference_pool(opt, exclude)
    X = np.vstack([c.get_array() for c in pool]) if pool else np.empty((0, len(opt.space)))
    return X, pool


def _assert_pool_matches(opt, build, exclude, X_ref, ref, ref_states):
    X, pool, states = _pool_and_rng_states(opt, build, exclude)
    assert [c.get_dictionary() for c in pool] == [c.get_dictionary() for c in ref]
    np.testing.assert_array_equal(X, X_ref)
    for c in pool:
        np.testing.assert_array_equal(c.get_array(), opt.space.encode(c))
    assert states == ref_states


def _exhausted():
    """An optimizer told every configuration of a 6-config space."""
    space = _space([3, 2], ["numeric", "string"], seed=5)
    opt = Optimizer(space, surrogate=DummySurrogate(), seed=5, n_initial_points=1)
    for i, config in enumerate(space.enumerate_configurations()):
        opt.tell(config, 1.0 + i)
    return opt


def _pool_battery(path: str) -> type:
    """The pool cases on one path; each path gets its own class, and so its
    own test functions, which Hypothesis requires."""

    class Battery:
        @settings(max_examples=150, deadline=None)
        @given(case=pool_cases())
        def test_index_pool_matches_reference(self, case):
            opt, in_flight = case
            X_ref, ref, ref_states = _pool_and_rng_states(
                opt, lambda e: _reference(opt, e), in_flight
            )
            with use_grower(path):
                _assert_pool_matches(
                    opt, lambda e: _index_pool(opt, e), in_flight, X_ref, ref,
                    ref_states,
                )

        def test_neighbor_budget_runs_out(self):
            # Three incumbents offer six new neighbours; the pool takes them
            # only until it holds n_candidates + n_neighbor_candidates rows.
            space = _space([20], ["numeric"], seed=3)
            every = space.enumerate_configurations()
            opt = Optimizer(space, surrogate=DummySurrogate(), seed=3,
                            n_initial_points=1, n_candidates=2,
                            n_neighbor_candidates=2)
            for cost, i in enumerate((5, 10, 15)):
                opt.tell(every[i], 1.0 + cost)
            X_ref, ref, ref_states = _pool_and_rng_states(
                opt, lambda e: _reference(opt, e), []
            )
            assert len(ref) == 4
            with use_grower(path):
                _assert_pool_matches(
                    opt, lambda e: _index_pool(opt, e), [], X_ref, ref, ref_states
                )

        def test_full_pool_stops_after_the_first_incumbent(self):
            # The global draw fills the pool and the best incumbent (4) has
            # no new neighbour: the pool is checked after its neighbours and
            # stops, though the next incumbent's neighbour 2 is new.
            space = _space([20], ["numeric"], seed=3)
            every = space.enumerate_configurations()
            opt = Optimizer(space, surrogate=DummySurrogate(), seed=3,
                            n_initial_points=1, n_candidates=1,
                            n_neighbor_candidates=0)
            for i, cost in ((4, 1.0), (3, 5.0), (5, 6.0)):
                opt.tell(every[i], cost)
            X_ref, ref, ref_states = _pool_and_rng_states(
                opt, lambda e: _reference(opt, e), []
            )
            assert len(ref) == 1 and ref[0] not in every[2:6]
            with use_grower(path):
                _assert_pool_matches(
                    opt, lambda e: _index_pool(opt, e), [], X_ref, ref, ref_states
                )

        @pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.SFC64])
        def test_any_bit_generator(self, bit_generator):
            space = _space([5, 1, 7], ["numeric", "string", "numeric"], seed=0)
            opt = Optimizer(space, surrogate=DummySurrogate(), n_initial_points=1,
                            n_candidates=40)
            space._rng = np.random.Generator(bit_generator(11))
            every = space.enumerate_configurations()
            for i in (3, 8, 20):
                opt.tell(every[i], float(i))
            X_ref, ref, ref_states = _pool_and_rng_states(
                opt, lambda e: _reference(opt, e), every[:2]
            )
            with use_grower(path):
                _assert_pool_matches(
                    opt, lambda e: _index_pool(opt, e), every[:2], X_ref, ref,
                    ref_states,
                )

        def test_exhausted_space_falls_back_to_sample_unseen(self):
            ref, opt = _exhausted(), _exhausted()
            assert reference_pool(ref) == []
            expected = ref._sample_unseen()
            with use_grower(path):
                assert opt._suggest() == expected
            assert opt.space._rng.bit_generator.state == ref.space._rng.bit_generator.state
            assert opt._rng.bit_generator.state == ref._rng.bit_generator.state

    return Battery


class TestPoolMatchesReference(_pool_battery("native")):
    """The compiled pool; skipped only on a host without a C toolchain."""


class TestNumpyPoolMatchesReference(_pool_battery("numpy")):
    """The NumPy pool, the only one on hosts without a working toolchain."""
