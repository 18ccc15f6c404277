"""The forest fit's draws, compiled and in NumPy, against the draw loop.

``RandomForestRegressor.fit`` draws each tree's seed, bootstrap rows and
feature generator from the forest generator. The compiled fit replays those
draws in C; both paths must grow the trees ``grow_trees`` grows from the
draws of ``reference_tree.reference_draws`` and leave the forest generator
in the same state, a buffered half-word included.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml import RandomForestRegressor, native
from repro.ml.tree import grow_trees, n_candidate_features
from tests.ml.growers import generator_state, have_toolchain, use_grower
from tests.ml.reference_tree import reference_draws

#: Seeds at SeedSequence's one-to-two-word boundary and the ends of
#: ``spawn_seed``'s range.
EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63 - 2)

NODE_ARRAYS = ("feature", "threshold", "left", "right", "value", "n_samples",
               "depth", "roots")


@pytest.mark.skipif(not have_toolchain(), reason="no C toolchain")
class TestTreeGeneratorSeeding:
    """``seed_pcg64`` sets a tree's PCG64 as ``np.random.default_rng(seed)``
    does (the NumPy path calls ``default_rng`` itself)."""

    @pytest.mark.parametrize("seed", EDGE_SEEDS + (2**64 - 1,))
    def test_edge_seeds(self, seed):
        with use_grower("native"):
            state = native.pcg64_state(native.library(), seed)
        assert state == np.random.PCG64(seed).state

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**63 - 2))
    def test_random_seeds(self, seed):
        with use_grower("native"):
            state = native.pcg64_state(native.library(), seed)
        assert state == np.random.PCG64(seed).state


def _parent(seed: int, half_word: bool) -> np.random.Generator:
    """A forest generator; with ``half_word`` a 32-bit draw has left the
    upper half of a 64-bit output buffered in it."""
    rng = np.random.default_rng(seed)
    if half_word:
        rng.integers(0, 5)
        assert rng.bit_generator.state["has_uint32"] == 1
    return rng


def _words(a: np.ndarray) -> np.ndarray:
    return a.view(np.int64) if a.dtype == np.float64 else a


def _fit_battery(path: str) -> type:
    """The fit cases on one path; each path gets its own class, and so its
    own test functions, which Hypothesis requires."""

    class Battery:
        def _assert_fit_matches(self, X, y, seed, half_word, **params):
            rng, want_rng = _parent(seed, half_word), _parent(seed, half_word)
            n_estimators = params.pop("n_estimators", 30)
            bootstrap = params.pop("bootstrap", True)
            with use_grower(path):
                got = RandomForestRegressor(
                    n_estimators=n_estimators, bootstrap=bootstrap, seed=rng, **params
                ).fit(X, y).nodes_
                rows, rngs = reference_draws(want_rng, n_estimators, X.shape[0],
                                             bootstrap)
                k = n_candidate_features(params.get("max_features", "sqrt"), X.shape[1])
                want = grow_trees(X, y, rows, rngs, k,
                                  min_samples_leaf=params.get("min_samples_leaf", 1))
            for name in NODE_ARRAYS:
                np.testing.assert_array_equal(_words(getattr(got, name)),
                                              _words(getattr(want, name)), name)
            assert generator_state(rng) == generator_state(want_rng)

        @settings(max_examples=80, deadline=None)
        @given(
            seed=st.sampled_from(EDGE_SEEDS) | st.integers(0, 2**63 - 2),
            n=st.integers(1, 150),
            d=st.integers(1, 8),
            max_features=st.sampled_from([None, "sqrt", 0.5, 0.8, "int"]),
            bootstrap=st.booleans(),
            half_word=st.booleans(),
            n_estimators=st.integers(1, 6),
            msl=st.integers(1, 3),
        )
        def test_fit_matches_the_draw_loop(self, seed, n, d, max_features,
                                           bootstrap, half_word, n_estimators, msl):
            if max_features == "int":
                max_features = 1 + seed % d
            data = np.random.default_rng(seed % 2**32 + 1)
            X = data.choice([0.0, 0.25, 0.5, 1.0], size=(n, d))
            y = data.standard_normal(n)
            self._assert_fit_matches(
                X, y, seed, half_word, n_estimators=n_estimators,
                max_features=max_features, bootstrap=bootstrap, min_samples_leaf=msl,
            )

        @pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.SFC64])
        def test_any_bit_generator(self, bit_generator):
            # The draws go through the generator's own next_uint64 and
            # next_uint32, whatever its algorithm.
            data = np.random.default_rng(4)
            X, y = data.random((40, 5)), data.standard_normal(40)
            rng = np.random.Generator(bit_generator(4))
            want_rng = np.random.Generator(bit_generator(4))
            with use_grower(path):
                got = RandomForestRegressor(n_estimators=5, max_features=2,
                                            seed=rng).fit(X, y).nodes_
                rows, rngs = reference_draws(want_rng, 5, 40)
                want = grow_trees(X, y, rows, rngs, 2)
            for name in NODE_ARRAYS:
                np.testing.assert_array_equal(_words(getattr(got, name)),
                                              _words(getattr(want, name)), name)
            assert generator_state(rng) == generator_state(want_rng)

        @pytest.mark.parametrize("half_word", [False, True])
        def test_session_shapes(self, half_word):
            # The ytopt surrogate's forest on lu (d = 2: max_features=0.8
            # draws no features) and on 3mm (d = 6, 5 drawn per node).
            data = np.random.default_rng(3)
            for d in (2, 6):
                X = data.integers(0, 8, size=(120, d)) / 7.0
                y = np.log(data.random(120) + 0.1)
                self._assert_fit_matches(X, y, 3, half_word, max_features=0.8)

    return Battery


class TestCompiledFitMatchesDrawLoop(_fit_battery("native")):
    """One ``fit_forest`` call; skipped only on a host without a C toolchain."""


class TestNumpyFitMatchesDrawLoop(_fit_battery("numpy")):
    """The NumPy draw loop, the only one on hosts without a working toolchain."""
