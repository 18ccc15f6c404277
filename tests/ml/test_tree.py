"""Tests for the CART regression tree and its two growers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ReproError
from repro.ml import DecisionTreeRegressor, RandomForestRegressor
from tests.ml import reference_tree
from tests.ml.growers import use_grower
from tests.ml.reference_tree import ReferenceTree, reference_forest


class TestFitBasics:
    def test_constant_target_single_leaf(self):
        X = np.random.default_rng(0).random((20, 3))
        y = np.full(20, 7.0)
        t = DecisionTreeRegressor().fit(X, y)
        assert t.n_leaves() == 1
        np.testing.assert_allclose(t.predict(X), 7.0)

    def test_perfect_step_function(self):
        X = np.linspace(0, 1, 50).reshape(-1, 1)
        y = (X[:, 0] > 0.5).astype(float) * 10.0
        t = DecisionTreeRegressor().fit(X, y)
        np.testing.assert_allclose(t.predict(X), y)

    def test_exact_split_threshold_recovered(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 5.0, 5.0])
        t = DecisionTreeRegressor().fit(X, y)
        assert t.nodes_.threshold[t.nodes_.roots[0]] == pytest.approx(1.5)

    def test_two_features_picks_informative(self):
        rng = np.random.default_rng(1)
        X = rng.random((100, 2))
        y = (X[:, 1] > 0.5).astype(float)  # only feature 1 matters
        t = DecisionTreeRegressor(max_depth=1).fit(X, y)
        assert t.nodes_.feature[t.nodes_.roots[0]] == 1

    def test_max_depth_respected(self):
        rng = np.random.default_rng(2)
        X = rng.random((200, 3))
        y = rng.random(200)
        t = DecisionTreeRegressor(max_depth=3).fit(X, y)
        assert t.depth() <= 3

    def test_min_samples_leaf(self):
        rng = np.random.default_rng(3)
        X = rng.random((40, 2))
        y = rng.random(40)
        t = DecisionTreeRegressor(min_samples_leaf=10).fit(X, y)
        leaves = t.nodes_.feature < 0
        assert t.nodes_.n_samples[leaves].min() >= 10

    def test_deterministic_with_seed(self):
        rng = np.random.default_rng(4)
        X = rng.random((50, 4))
        y = rng.random(50)
        p1 = DecisionTreeRegressor(max_features="sqrt", seed=9).fit(X, y).predict(X)
        p2 = DecisionTreeRegressor(max_features="sqrt", seed=9).fit(X, y).predict(X)
        np.testing.assert_array_equal(p1, p2)


class TestValidation:
    def test_predict_before_fit(self):
        with pytest.raises(ReproError):
            DecisionTreeRegressor().predict(np.zeros((1, 1)))

    def test_empty_data_rejected(self):
        with pytest.raises(ReproError):
            DecisionTreeRegressor().fit(np.zeros((0, 2)), np.zeros(0))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ReproError):
            DecisionTreeRegressor().fit(np.zeros((5, 2)), np.zeros(4))

    def test_1d_x_rejected(self):
        with pytest.raises(ReproError):
            DecisionTreeRegressor().fit(np.zeros(5), np.zeros(5))

    def test_predict_wrong_width_rejected(self):
        t = DecisionTreeRegressor().fit(np.zeros((4, 2)), np.arange(4.0))
        with pytest.raises(ReproError):
            t.predict(np.zeros((3, 5)))

    def test_bad_hyperparams_rejected(self):
        with pytest.raises(ReproError):
            DecisionTreeRegressor(min_samples_split=1)
        with pytest.raises(ReproError):
            DecisionTreeRegressor(max_depth=0)

    def test_bad_max_features_rejected(self):
        X, y = np.zeros((5, 2)), np.arange(5.0)
        with pytest.raises(ReproError):
            DecisionTreeRegressor(max_features=3.5).fit(X, y)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def _data(seed: int, n: int, d: int, duplicates: bool, targets: str):
    rng = np.random.default_rng(seed)
    if duplicates:
        # Encoded tiling factors repeat a lot: draw from a tiny value set so
        # tie-handling and the distinct-value candidate mask are exercised.
        X = rng.choice([0.0, 0.25, 0.5, 1.0], size=(n, d))
    else:
        X = rng.random((n, d))
    if targets == "signed_zero":
        y = rng.choice([-0.0, 0.0, 1.0], size=n)
    elif targets == "rounded":
        y = np.round(rng.standard_normal(n), 1)
    else:
        y = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
    probes = np.vstack([X, rng.random((16, d)), np.full((1, d), np.nan)])
    return X, y, probes


def _reference_battery(grower: str) -> type:
    """The bit-identity cases for one grower vs the recursive builder in
    ``reference_tree.py``: per-tree predictions are compared as int64 bit
    patterns, and the forest generator must end in the same state.

    Each grower gets its own class, and so its own test functions, which
    Hypothesis requires of tests run from different classes.
    """

    class Battery:
        def _assert_forest_matches(self, X, y, probes, n_estimators, seed,
                                   bootstrap, **params):
            with use_grower(grower):
                forest = RandomForestRegressor(
                    n_estimators=n_estimators, bootstrap=bootstrap, seed=seed, **params
                ).fit(X, y)
                got = forest.nodes_.predict(probes)
            rng = np.random.default_rng(seed)
            trees = reference_forest(X, y, rng, n_estimators, bootstrap=bootstrap,
                                     **params)
            want = np.stack([t.predict(probes) for t in trees])
            np.testing.assert_array_equal(_bits(got), _bits(want))
            assert forest._rng.bit_generator.state == rng.bit_generator.state
            assert forest.nodes_.feature.size == sum(
                2 * len(reference_tree.leaf_sizes(t.root)) - 1 for t in trees
            )

        @settings(max_examples=60, deadline=None)
        @given(
            seed=st.integers(0, 10_000),
            n=st.integers(2, 150),
            d=st.integers(1, 8),
            max_features=st.sampled_from([None, "sqrt", 0.8, "int"]),
            msl=st.integers(1, 4),
            max_depth=st.sampled_from([None, 1, 2, 3, 4, 5, 6]),
            bootstrap=st.booleans(),
            duplicates=st.booleans(),
            targets=st.sampled_from(["normal", "rounded", "signed_zero"]),
            n_estimators=st.integers(1, 6),
        )
        def test_forest_matches_reference(self, seed, n, d, max_features, msl,
                                          max_depth, bootstrap, duplicates, targets,
                                          n_estimators):
            if max_features == "int":
                max_features = 1 + seed % d
            X, y, probes = _data(seed, n, d, duplicates, targets)
            self._assert_forest_matches(
                X, y, probes, n_estimators, seed, bootstrap,
                max_features=max_features, min_samples_leaf=msl, max_depth=max_depth,
            )

        @settings(max_examples=20, deadline=None)
        @given(seed=st.integers(0, 10_000), msl=st.integers(1, 4),
               max_features=st.sampled_from([None, 2]))
        def test_heavy_duplicates_match_reference(self, seed, msl, max_features):
            X, y, probes = _data(seed, 40, 3, duplicates=True, targets="normal")
            self._assert_forest_matches(
                X, y, probes, 5, seed, True,
                max_features=max_features, min_samples_leaf=msl,
            )

        @settings(max_examples=15, deadline=None)
        @given(seed=st.integers(0, 10_000), max_features=st.sampled_from([None, 2]))
        def test_single_tree_matches_reference(self, seed, max_features):
            X, y, probes = _data(seed, 60, 3, duplicates=False, targets="normal")
            tree = DecisionTreeRegressor(max_features=max_features, seed=seed)
            ref = ReferenceTree(max_features=max_features, seed=seed)
            for _ in range(2):  # the second fit continues each generator's stream
                with use_grower(grower):
                    tree.fit(X, y)
                    got = tree.predict(probes)
                ref.fit(X, y)
                np.testing.assert_array_equal(_bits(got), _bits(ref.predict(probes)))
                assert tree.depth() == reference_tree.depth(ref.root)
                assert tree.n_leaves() == len(reference_tree.leaf_sizes(ref.root))
            assert tree._rng.bit_generator.state == ref._rng.bit_generator.state

        def test_large_nodes_match_reference(self):
            # Nodes above 128 samples are summed by NumPy's recursive pairwise
            # path: the NumPy grower reduces them row by row, the compiled one
            # splits them on a task stack.
            # The last two cases make such nodes leaves, whose values are
            # predicted: depth 1, and a root that may not split.
            X, y, probes = _data(11, 300, 2, duplicates=False, targets="normal")
            for params in (dict(), dict(max_features=1), dict(max_depth=1),
                           dict(min_samples_split=301)):
                self._assert_forest_matches(X, y, probes, 3, 11, True,
                                            **{"max_features": None, **params})

        def test_wide_feature_draws_match_reference(self):
            # 40 features, 6 drawn per node: Floyd's algorithm collides and the
            # shuffle runs over several positions, drawing from each tree's
            # generator in preorder.
            X, y, probes = _data(5, 50, 40, duplicates=True, targets="rounded")
            self._assert_forest_matches(X, y, probes, 4, 5, True, max_features="sqrt")

        def test_constant_column_never_split(self):
            rng = np.random.default_rng(7)
            X = np.column_stack([np.full(20, 3.0), rng.random(20)])
            y = rng.random(20)
            with use_grower(grower):
                t = DecisionTreeRegressor().fit(X, y)
            assert set(t.nodes_.feature[t.nodes_.feature >= 0]) == {1}
            self._assert_forest_matches(X, y, X, 4, 7, True, max_features=None)

        def test_min_samples_leaf_masks_all_positions(self):
            X = np.arange(4.0).reshape(-1, 1)
            y = np.array([0.0, 1.0, 2.0, 3.0])
            # No split leaves both sides >= 3 of 4 samples: a single leaf.
            with use_grower(grower):
                t = DecisionTreeRegressor(min_samples_leaf=3).fit(X, y)
            assert t.n_leaves() == 1
            self._assert_forest_matches(X, y, X, 2, 0, False, min_samples_leaf=3,
                                        max_features=None)

    return Battery


class TestGrowerMatchesReference(_reference_battery("native")):
    """The compiled grower; skipped only on a host without a C toolchain."""


class TestNumpyGrowerMatchesReference(_reference_battery("numpy")):
    """The NumPy grower, the only one on hosts without a working toolchain."""


class TestProperties:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000), n=st.integers(5, 60))
    def test_predictions_within_target_range(self, seed, n):
        rng = np.random.default_rng(seed)
        X = rng.random((n, 3))
        y = rng.uniform(-5, 5, size=n)
        t = DecisionTreeRegressor().fit(X, y)
        pred = t.predict(rng.random((20, 3)))
        assert pred.min() >= y.min() - 1e-9
        assert pred.max() <= y.max() + 1e-9

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_full_depth_interpolates_training_data(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.random((30, 2))
        y = rng.random(30)
        t = DecisionTreeRegressor().fit(X, y)
        # Distinct rows are almost surely separable -> training fit is exact.
        np.testing.assert_allclose(t.predict(X), y, atol=1e-12)
