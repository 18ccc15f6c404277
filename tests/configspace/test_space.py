"""Tests for ConfigurationSpace and Configuration."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import SpaceError
from repro.configspace import (
    CategoricalHyperparameter,
    Configuration,
    ConfigurationSpace,
    EqualsCondition,
    InCondition,
    OrdinalHyperparameter,
    UniformFloatHyperparameter,
)
from repro.configspace.space import INACTIVE


def _flat_space(seed=None):
    cs = ConfigurationSpace(seed=seed)
    cs.add_hyperparameters(
        [
            OrdinalHyperparameter("P0", [1, 2, 4, 8]),
            OrdinalHyperparameter("P1", [1, 3, 9]),
        ]
    )
    return cs


def _conditional_space(seed=None):
    cs = ConfigurationSpace(seed=seed)
    algo = CategoricalHyperparameter("algo", ["tiled", "naive"])
    tile = OrdinalHyperparameter("tile", [2, 4, 8])
    cs.add_hyperparameters([algo, tile])
    cs.add_condition(EqualsCondition(tile, algo, "tiled"))
    return cs


class TestConstruction:
    def test_duplicate_name_rejected(self):
        cs = _flat_space()
        with pytest.raises(SpaceError):
            cs.add_hyperparameter(OrdinalHyperparameter("P0", [1]))

    def test_size_product(self):
        assert _flat_space().size() == 12.0

    def test_size_infinite_with_float(self):
        cs = _flat_space()
        cs.add_hyperparameter(UniformFloatHyperparameter("x", 0, 1))
        assert cs.size() == float("inf")

    def test_get_hyperparameter(self):
        cs = _flat_space()
        assert cs.get_hyperparameter("P0").name == "P0"
        with pytest.raises(SpaceError):
            cs.get_hyperparameter("nope")

    def test_condition_unknown_param_rejected(self):
        cs = ConfigurationSpace()
        a = CategoricalHyperparameter("a", ["x"])
        b = OrdinalHyperparameter("b", [1])
        cs.add_hyperparameter(a)
        with pytest.raises(SpaceError):
            cs.add_condition(EqualsCondition(b, a, "x"))

    def test_condition_cycle_rejected(self):
        cs = ConfigurationSpace()
        a = CategoricalHyperparameter("a", ["x", "y"])
        b = CategoricalHyperparameter("b", ["u", "v"])
        cs.add_hyperparameters([a, b])
        cs.add_condition(EqualsCondition(b, a, "x"))
        with pytest.raises(SpaceError):
            cs.add_condition(EqualsCondition(a, b, "u"))

    def test_self_condition_rejected(self):
        a = CategoricalHyperparameter("a", ["x", "y"])
        with pytest.raises(SpaceError):
            EqualsCondition(a, a, "x")


class TestSampling:
    def test_seeded_determinism(self):
        a = [c.get_dictionary() for c in _flat_space(seed=5).sample_configuration(10)]
        b = [c.get_dictionary() for c in _flat_space(seed=5).sample_configuration(10)]
        assert a == b

    def test_sample_size(self):
        assert len(_flat_space(seed=0).sample_configuration(7)) == 7

    def test_single_sample_is_configuration(self):
        assert isinstance(_flat_space(seed=0).sample_configuration(), Configuration)

    def test_bad_size_rejected(self):
        with pytest.raises(SpaceError):
            _flat_space().sample_configuration(0)

    def test_samples_are_legal(self):
        cs = _flat_space(seed=1)
        for c in cs.sample_configuration(30):
            cs.check_configuration(c.get_dictionary())

    def test_conditional_sampling_respects_activity(self):
        cs = _conditional_space(seed=3)
        saw_active = saw_inactive = False
        for c in cs.sample_configuration(40):
            d = c.get_dictionary()
            if d["algo"] == "tiled":
                assert "tile" in d
                saw_active = True
            else:
                assert "tile" not in d
                saw_inactive = True
        assert saw_active and saw_inactive

    def test_default_configuration(self):
        cs = _flat_space()
        assert cs.default_configuration().get_dictionary() == {"P0": 1, "P1": 1}

    def test_in_condition(self):
        cs = ConfigurationSpace(seed=0)
        a = OrdinalHyperparameter("a", [1, 2, 3])
        b = OrdinalHyperparameter("b", [10, 20])
        cs.add_hyperparameters([a, b])
        cs.add_condition(InCondition(b, a, [2, 3]))
        for c in cs.sample_configuration(30):
            d = c.get_dictionary()
            assert ("b" in d) == (d["a"] in (2, 3))


class TestValidation:
    def test_unknown_param_rejected(self):
        with pytest.raises(SpaceError):
            Configuration(_flat_space(), {"P0": 1, "P1": 1, "PX": 2})

    def test_missing_param_rejected(self):
        with pytest.raises(SpaceError):
            Configuration(_flat_space(), {"P0": 1})

    def test_illegal_value_rejected(self):
        with pytest.raises(SpaceError):
            Configuration(_flat_space(), {"P0": 7, "P1": 1})

    def test_inactive_value_rejected(self):
        cs = _conditional_space()
        with pytest.raises(SpaceError):
            Configuration(cs, {"algo": "naive", "tile": 4})


class TestEncoding:
    def test_encoding_order_and_range(self):
        cs = _flat_space()
        arr = cs.encode({"P0": 8, "P1": 1})
        np.testing.assert_allclose(arr, [1.0, 0.0])

    def test_inactive_encodes_sentinel(self):
        cs = _conditional_space()
        arr = cs.encode({"algo": "naive"})
        assert arr[1] == INACTIVE

    def test_encode_many_shape(self):
        cs = _flat_space(seed=0)
        configs = cs.sample_configuration(5)
        assert cs.encode_many([c.get_dictionary() for c in configs]).shape == (5, 2)

    def test_configuration_hash_eq(self):
        cs = _flat_space()
        c1 = Configuration(cs, {"P0": 2, "P1": 3})
        c2 = Configuration(cs, {"P0": 2, "P1": 3})
        assert c1 == c2 and hash(c1) == hash(c2)
        assert c1 in {c2}


class TestBatchSampling:
    """`sample_configuration_batch` and the index sampler
    (`IndexView.sample`) are drop-ins for n sequential samples.

    Identical values, identical encodings, and — critically for seeded tuner
    trajectories — an identical RNG stream: the draw *after* a batch must
    equal the draw after the same number of sequential samples.
    """

    @staticmethod
    def _uniform_space(seed=None):
        # Equal cardinalities, no weights.
        cs = ConfigurationSpace(seed=seed)
        cs.add_hyperparameters(
            [OrdinalHyperparameter(f"P{i}", [1, 2, 4, 8]) for i in range(3)]
        )
        return cs

    @staticmethod
    def _single_value_space(seed=None):
        # Cardinality-1 columns draw nothing, between columns that do.
        cs = ConfigurationSpace(seed=seed)
        cs.add_hyperparameters(
            [
                OrdinalHyperparameter("P0", [7]),
                OrdinalHyperparameter("P1", [1, 2, 4, 8, 16]),
                CategoricalHyperparameter("P2", ["only"]),
                CategoricalHyperparameter("P3", ["a", "b", "c"]),
            ]
        )
        return cs

    @staticmethod
    def _index_batch(cs, n):
        view = cs.index_view()
        rows = view.sample(n)
        return [view.configuration(row) for row in rows], view.encode(rows)

    def _assert_batch_matches_sequential(self, make_space, n=50, batch=None):
        batch_cs = make_space(11)
        if batch is None:
            configs, X = batch_cs.sample_configuration_batch(n)
        else:
            configs, X = batch(batch_cs, n)
        seq_cs = make_space(11)
        expected = [seq_cs.sample_configuration() for _ in range(n)]
        assert [c.get_dictionary() for c in configs] == [
            c.get_dictionary() for c in expected
        ]
        for i, c in enumerate(expected):
            np.testing.assert_array_equal(X[i], c.get_array())
            np.testing.assert_array_equal(configs[i].get_array(), c.get_array())
        # Post-batch RNG state: the next sequential draw agrees.
        assert (
            batch_cs.sample_configuration().get_dictionary()
            == seq_cs.sample_configuration().get_dictionary()
        )

    def test_fused_path_matches_sequential(self):
        self._assert_batch_matches_sequential(self._uniform_space)

    @pytest.mark.parametrize("space", ["uniform", "mixed", "single_value"])
    def test_index_sampler_matches_sequential(self, space):
        make_space = {
            "uniform": self._uniform_space,
            "mixed": _flat_space,
            "single_value": self._single_value_space,
        }[space]
        self._assert_batch_matches_sequential(make_space, batch=self._index_batch)
        self._assert_batch_matches_sequential(make_space, n=1, batch=self._index_batch)

    def test_index_view_only_for_plain_finite_spaces(self):
        assert _conditional_space().index_view() is None
        weighted = ConfigurationSpace()
        weighted.add_hyperparameter(
            CategoricalHyperparameter("w", ["a", "b"], weights=[0.9, 0.1])
        )
        assert weighted.index_view() is None
        continuous = _flat_space()
        continuous.add_hyperparameter(UniformFloatHyperparameter("x", 0, 1))
        assert continuous.index_view() is None
        assert ConfigurationSpace().index_view() is None
        huge = ConfigurationSpace()
        huge.add_hyperparameters(
            [OrdinalHyperparameter(f"P{i}", list(range(1 << 16))) for i in range(4)]
        )
        assert huge.index_view() is None

    def test_index_codes_are_mixed_radix(self):
        view = _flat_space().index_view()
        rows = np.array([[0, 0], [1, 0], [0, 1], [3, 2]])
        np.testing.assert_array_equal(view.codes(rows), [0, 1, 4, 11])
        config = view.configuration(np.array([3, 2]))
        assert config.get_dictionary() == {"P0": 8, "P1": 9}
        np.testing.assert_array_equal(view.row_of(config), [3, 2])

    def test_mixed_cardinality_matches_sequential(self):
        self._assert_batch_matches_sequential(_flat_space)

    def test_conditional_matches_sequential(self):
        self._assert_batch_matches_sequential(_conditional_space)

    def test_weighted_categorical_matches_sequential(self):
        def make(seed):
            cs = ConfigurationSpace(seed=seed)
            cs.add_hyperparameters(
                [
                    CategoricalHyperparameter(
                        "w", ["a", "b", "c"], weights=[0.7, 0.2, 0.1]
                    ),
                    CategoricalHyperparameter("u", ["x", "y", "z"]),
                ]
            )
            return cs

        self._assert_batch_matches_sequential(make)

    def test_rows_are_memoized_arrays(self):
        cs = self._uniform_space(0)
        configs, X = cs.sample_configuration_batch(4)
        for i, c in enumerate(configs):
            assert c.get_array() is c.get_array()  # memoized, not recomputed
            np.testing.assert_array_equal(c.get_array(), cs.encode(c.get_dictionary()))

    def test_batch_size_validation(self):
        with pytest.raises(SpaceError):
            _flat_space(seed=0).sample_configuration_batch(-1)

    def test_empty_batch(self):
        configs, X = _flat_space(seed=0).sample_configuration_batch(0)
        assert configs == [] and X.shape == (0, 2)


class TestNeighbors:
    def test_single_param_changed(self):
        cs = _flat_space(seed=0)
        base = {"P0": 2, "P1": 3}
        for nb in cs.neighbors(base, np.random.default_rng(0)):
            diff = [k for k in base if nb[k] != base[k]]
            assert len(diff) == 1

    def test_neighbors_are_valid(self):
        cs = _conditional_space(seed=0)
        base = cs.sample_configuration().get_dictionary()
        for nb in cs.neighbors(base, np.random.default_rng(1)):
            cs.check_configuration(nb.get_dictionary())

    @pytest.mark.parametrize("make, bases", [
        (_flat_space, [{"P0": 2, "P1": 3}, {"P0": 8}]),
        (_conditional_space, [{"algo": "naive"}, {"algo": "tiled", "tile": 4}]),
    ])
    def test_same_draws_as_the_activity_pass(self, make, bases):
        # The reference runs the activity pass, which only conditioned
        # spaces need, on every space: same neighbours and generator state.
        cs = make(seed=0)
        for seed, base in enumerate(bases):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            want = []
            for name, hp in cs._params.items():
                if name not in base:
                    continue
                for nb in hp.neighbors(base[name], ref_rng, n=2):
                    cand = dict(base, **{name: nb})
                    cand = {k: v for k, v in cand.items() if cs._is_active(k, cand)}
                    for missing in cs._params:
                        if cs._is_active(missing, cand) and missing not in cand:
                            cand[missing] = cs._params[missing].sample(ref_rng)
                    want.append(cand)
            assert [nb.get_dictionary() for nb in cs.neighbors(base, rng)] == want
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_property_sampling_always_valid(self, seed):
        cs = _conditional_space(seed=seed)
        c = cs.sample_configuration()
        cs.check_configuration(c.get_dictionary())
