"""The optimizer's candidate pool against the reference loop.

Registry spaces draw the pool as an integer index matrix and de-duplicate it
by int64 codes (``Optimizer._index_pool``); other spaces draw configurations
and de-duplicate by encoded-row bytes (``Optimizer._config_pool``). Both must
give the pool of ``reference_pool.py`` — the same candidates in the same
order — and leave both RNGs where it leaves them, over random spaces, told
sets and in-flight sets. Registry-like spaces run both pools; spaces with
weights, conditions or integer and float ranges run the configuration pool.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.configspace import (
    CategoricalHyperparameter,
    ConfigurationSpace,
    EqualsCondition,
    OrdinalHyperparameter,
    UniformFloatHyperparameter,
    UniformIntegerHyperparameter,
)
from repro.ytopt import Optimizer
from repro.ytopt.surrogate import DummySurrogate
from tests.ytopt.reference_pool import reference_pool


def _space(cards, kinds, seed, condition=False):
    """One hyperparameter per kind: ``ordinal`` and ``categorical`` (the
    kinds of an index view), ``weighted`` categoricals, ``int`` and
    ``float`` ranges. ``condition`` makes the last hyperparameter active
    only while the first takes its first value."""
    cs = ConfigurationSpace(seed=seed)
    hps = []
    for i, (card, kind) in enumerate(zip(cards, kinds)):
        if kind == "ordinal":
            hp = OrdinalHyperparameter(f"P{i}", [2**k for k in range(card)])
        elif kind == "categorical":
            hp = CategoricalHyperparameter(f"P{i}", [f"v{k}" for k in range(card)])
        elif kind == "weighted":
            weights = [k + 1.0 for k in range(card)]
            hp = CategoricalHyperparameter(
                f"P{i}", [f"v{k}" for k in range(card)], weights=weights
            )
        elif kind == "int":
            hp = UniformIntegerHyperparameter(f"P{i}", 0, card)
        else:
            hp = UniformFloatHyperparameter(f"P{i}", 0.0, 1.0)
        hps.append(cs.add_hyperparameter(hp))
    if condition and len(hps) > 1 and kinds[0] in ("ordinal", "categorical", "weighted"):
        first = 1 if kinds[0] == "ordinal" else "v0"
        cs.add_condition(EqualsCondition(hps[-1], hps[0], first))
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
    kind = st.sampled_from(["ordinal", "categorical"])
    kinds = draw(st.lists(kind, min_size=d, max_size=d))
    seed = draw(st.integers(0, 2**16))
    space = _space(cards, kinds, seed)
    every = space.enumerate_configurations()
    pick = st.integers(0, len(every) - 1)
    told = [every[i] for i in draw(st.lists(pick, min_size=1, max_size=len(every) + 3))]
    in_flight = [every[i] for i in draw(st.lists(pick, max_size=4))]
    return _optimizer(draw, space, told, seed), in_flight


@st.composite
def generic_pool_cases(draw):
    """Spaces without an index view. Told and in-flight configurations are
    picked, with repeats, from a few the space samples itself, so small
    spaces still see the pool collide with them."""
    d = draw(st.integers(1, 4))
    cards = draw(st.lists(st.integers(1, 6), min_size=d, max_size=d))
    kind = st.sampled_from(["ordinal", "categorical", "weighted", "int", "float"])
    kinds = draw(st.lists(kind, min_size=d, max_size=d))
    seed = draw(st.integers(0, 2**16))
    space = _space(cards, kinds, seed, condition=draw(st.booleans()))
    assume(space.index_view() is None)
    drawn = [space.sample_configuration() for _ in range(draw(st.integers(1, 12)))]
    pick = st.integers(0, len(drawn) - 1)
    told = [drawn[i] for i in draw(st.lists(pick, min_size=1, max_size=len(drawn) + 3))]
    in_flight = [drawn[i] for i in draw(st.lists(pick, max_size=4))]
    return _optimizer(draw, space, told, seed), in_flight


def _pool_and_rng_states(opt, build, exclude):
    """Run one pool builder from the optimizer's current RNG states, restore
    them, and return what it built plus the states it left."""
    before = (opt.space._rng.bit_generator.state, opt._rng.bit_generator.state)
    X, candidates = build(exclude)
    after = (opt.space._rng.bit_generator.state, opt._rng.bit_generator.state)
    opt.space._rng.bit_generator.state, opt._rng.bit_generator.state = before
    if not isinstance(candidates, list):
        candidates = [candidates(i) for i in range(len(X))]
    return X, candidates, after


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


class TestPoolMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(case=pool_cases())
    def test_index_and_config_pools_match_reference(self, case):
        opt, in_flight = case
        assert opt._index is not None
        X_ref, ref, ref_states = _pool_and_rng_states(
            opt, lambda e: _reference(opt, e), in_flight
        )
        for build in (opt._index_pool, opt._config_pool):
            _assert_pool_matches(opt, build, in_flight, X_ref, ref, ref_states)

    @settings(max_examples=150, deadline=None)
    @given(case=generic_pool_cases())
    def test_config_pool_matches_reference_on_other_spaces(self, case):
        opt, in_flight = case
        assert opt._index is None
        X_ref, ref, ref_states = _pool_and_rng_states(
            opt, lambda e: _reference(opt, e), in_flight
        )
        _assert_pool_matches(opt, opt._config_pool, in_flight, X_ref, ref, ref_states)

    def test_exhausted_space_falls_back_to_sample_unseen(self):
        def exhausted():
            space = _space([3, 2], ["ordinal", "categorical"], seed=5)
            opt = Optimizer(space, surrogate=DummySurrogate(), seed=5, n_initial_points=1)
            for i, config in enumerate(space.enumerate_configurations()):
                opt.tell(config, 1.0 + i)
            return opt

        ref, opt = exhausted(), exhausted()
        assert reference_pool(ref) == []
        expected = ref._sample_unseen()
        assert opt._suggest() == expected
        assert opt.space._rng.bit_generator.state == ref.space._rng.bit_generator.state
        assert opt._rng.bit_generator.state == ref._rng.bit_generator.state
