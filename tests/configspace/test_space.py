"""Tests for ConfigurationSpace and Configuration."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import SpaceError
from repro.configspace import Configuration, ConfigurationSpace, OrdinalHyperparameter
from tests.ytopt.reference_pool import reference_neighbors


def _flat_space(seed=None):
    cs = ConfigurationSpace(seed=seed)
    cs.add_hyperparameters(
        [
            OrdinalHyperparameter("P0", [1, 2, 4, 8]),
            OrdinalHyperparameter("P1", [1, 3, 9]),
        ]
    )
    return cs


class TestConstruction:
    def test_duplicate_name_rejected(self):
        cs = _flat_space()
        with pytest.raises(SpaceError):
            cs.add_hyperparameter(OrdinalHyperparameter("P0", [1]))

    def test_size_product(self):
        assert _flat_space().size() == 12.0

    def test_get_hyperparameter(self):
        cs = _flat_space()
        assert cs.get_hyperparameter("P0").name == "P0"
        with pytest.raises(SpaceError):
            cs.get_hyperparameter("nope")

    def test_space_of_2_63_configurations_rejected(self):
        cs = ConfigurationSpace()
        cs.add_hyperparameters(
            [OrdinalHyperparameter(f"P{i}", list(range(1 << 16))) for i in range(3)]
        )
        cs.add_hyperparameter(OrdinalHyperparameter("P3", list(range((1 << 15) - 1))))
        with pytest.raises(SpaceError, match="2\\*\\*63"):
            cs.add_hyperparameter(OrdinalHyperparameter("P4", [1, 2]))
        assert cs.get_hyperparameter_names() == ["P0", "P1", "P2", "P3"]
        assert len(cs.index_view()) == (1 << 63) - (1 << 48)
        huge = ConfigurationSpace()
        huge.add_hyperparameters(
            [OrdinalHyperparameter(f"P{i}", list(range(1 << 16))) for i in range(3)]
        )
        with pytest.raises(SpaceError, match="2\\*\\*63"):
            huge.add_hyperparameter(OrdinalHyperparameter("P3", list(range(1 << 15))))

    def test_index_view_rejects_empty_space(self):
        with pytest.raises(SpaceError, match="no hyperparameters"):
            ConfigurationSpace().index_view()


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


class TestEncoding:
    def test_encoding_order_and_range(self):
        cs = _flat_space()
        arr = cs.encode({"P0": 8, "P1": 1})
        np.testing.assert_allclose(arr, [1.0, 0.0])

    def test_configuration_hash_eq(self):
        cs = _flat_space()
        c1 = Configuration(cs, {"P0": 2, "P1": 3})
        c2 = Configuration(cs, {"P0": 2, "P1": 3})
        assert c1 == c2 and hash(c1) == hash(c2)
        assert c1 in {c2}


class TestBatchSampling:
    """The index sampler (`IndexView.sample`) is a drop-in for n sequential
    samples.

    Identical values, identical encodings, and — critically for seeded tuner
    trajectories — an identical RNG stream: the draw *after* a batch must
    equal the draw after the same number of sequential samples.
    """

    @staticmethod
    def _uniform_space(seed=None):
        # Equal cardinalities.
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
                OrdinalHyperparameter("P2", ["only"]),
                OrdinalHyperparameter("P3", ["a", "b", "c"]),
            ]
        )
        return cs

    @staticmethod
    def _index_batch(cs, n):
        view = cs.index_view()
        rows = view.sample(n)
        return [view.configuration(row) for row in rows], view.encode(rows)

    def _assert_batch_matches_sequential(self, make_space, n=50):
        batch_cs = make_space(11)
        configs, X = self._index_batch(batch_cs, n)
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

    @pytest.mark.parametrize("space", ["uniform", "mixed", "single_value"])
    def test_index_sampler_matches_sequential(self, space):
        make_space = {
            "uniform": self._uniform_space,
            "mixed": _flat_space,
            "single_value": self._single_value_space,
        }[space]
        self._assert_batch_matches_sequential(make_space)
        self._assert_batch_matches_sequential(make_space, n=1)

    def test_rows_are_memoized_arrays(self):
        cs = self._uniform_space(0)
        view = cs.index_view()
        for row in view.sample(4):
            c = view.configuration(row)
            assert c.get_array() is c.get_array()  # memoized, not recomputed
            np.testing.assert_array_equal(c.get_array(), cs.encode(c.get_dictionary()))

    def test_empty_batch(self):
        cs = _flat_space(seed=0)
        state = cs._rng.bit_generator.state
        rows = cs.index_view().sample(0)
        assert rows.shape == (0, 2)
        assert cs._rng.bit_generator.state == state

    def test_index_codes_are_mixed_radix(self):
        view = _flat_space().index_view()
        rows = np.array([[0, 0], [1, 0], [0, 1], [3, 2]])
        np.testing.assert_array_equal(view.codes(rows), [0, 1, 4, 11])
        config = view.configuration(np.array([3, 2]))
        assert config.get_dictionary() == {"P0": 8, "P1": 9}
        np.testing.assert_array_equal(view.row_of(config), [3, 2])
        assert view.code_of(config) == 11

    def test_unseen_rows_in_enumeration_order(self):
        cs = _flat_space()
        view = cs.index_view()
        every = cs.enumerate_configurations()
        # First hyperparameter slowest: the reverse of code order.
        assert [dict(c) for c in every[:4]] == [
            {"P0": 1, "P1": 1}, {"P0": 1, "P1": 3}, {"P0": 1, "P1": 9}, {"P0": 2, "P1": 1}
        ]
        taken = {view.code_of(every[i]) for i in (0, 4, 11)}
        rest = [c for i, c in enumerate(every) if i not in (0, 4, 11)]
        assert [view.configuration(r) for r in view.unseen(taken)] == rest
        assert len(view.unseen(set())) == len(every) == 12


class TestNeighbors:
    def test_single_param_changed(self):
        view = _flat_space(seed=0).index_view()
        base = np.array([1, 2])
        for nb in view.neighbors(base):
            assert (nb != base).sum() == 1

    def test_neighbors_are_valid(self):
        cs = _flat_space(seed=0)
        view = cs.index_view()
        for code in range(len(view)):
            for nb in view.neighbors(view.rows(code)):
                cs.check_configuration(view.configuration(nb).get_dictionary())

    @settings(max_examples=50, deadline=None)
    @given(cards=st.lists(st.integers(1, 7), min_size=1, max_size=5), data=st.data())
    def test_same_rows_as_the_per_value_rule(self, cards, data):
        # The reference walks each hyperparameter's value list from the
        # configuration's values, as local search did before index rows.
        cs = ConfigurationSpace()
        cs.add_hyperparameters(
            [OrdinalHyperparameter(f"P{i}", [f"v{k}" for k in range(n)])
             for i, n in enumerate(cards)]
        )
        view = cs.index_view()
        row = np.array([data.draw(st.integers(0, n - 1)) for n in cards])
        config = view.configuration(row)
        got = [view.configuration(nb).get_dictionary() for nb in view.neighbors(row)]
        assert got == reference_neighbors(cs, config)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_property_sampling_always_valid(self, seed):
        cs = _flat_space(seed=seed)
        c = cs.sample_configuration()
        cs.check_configuration(c.get_dictionary())
