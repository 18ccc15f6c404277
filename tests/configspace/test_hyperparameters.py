"""Tests for the ordinal hyperparameter."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.common.errors import SpaceError
from repro.configspace import ConfigurationSpace, OrdinalHyperparameter


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def _neighbor_values(hp, value):
    """The values IndexView.neighbors moves ``hp`` to from ``value``."""
    space = ConfigurationSpace()
    space.add_hyperparameter(hp)
    view = space.index_view()
    rows = view.neighbors(view.row_of({hp.name: value}))
    return [view.configuration(row)[hp.name] for row in rows]


class TestOrdinal:
    def test_sequence_preserved(self):
        hp = OrdinalHyperparameter("P0", [1, 2, 4, 8])
        assert [hp.value_at(i) for i in range(4)] == [1, 2, 4, 8]
        assert [hp.index_of(v) for v in (1, 2, 4, 8)] == [0, 1, 2, 3]
        assert hp.size() == 4

    def test_empty_rejected(self):
        with pytest.raises(SpaceError):
            OrdinalHyperparameter("P0", [])

    def test_duplicates_rejected(self):
        with pytest.raises(SpaceError):
            OrdinalHyperparameter("P0", [1, 1, 2])

    def test_sample_legal(self, rng):
        hp = OrdinalHyperparameter("P0", [1, 2, 4])
        for _ in range(20):
            assert hp.is_legal(hp.sample(rng))

    def test_encode_positions(self):
        hp = OrdinalHyperparameter("P0", [1, 2, 4, 8, 16])
        assert hp.encode(1) == 0.0
        assert hp.encode(16) == 1.0
        assert hp.encode(4) == pytest.approx(0.5)

    def test_encode_illegal_rejected(self):
        with pytest.raises(SpaceError):
            OrdinalHyperparameter("P0", [1, 2]).encode(7)

    def test_neighbors_adjacent(self):
        hp = OrdinalHyperparameter("P0", [1, 2, 4, 8, 16])
        assert _neighbor_values(hp, 4) == [2, 8]

    def test_neighbors_at_boundary(self):
        hp = OrdinalHyperparameter("P0", [1, 2, 4])
        assert _neighbor_values(hp, 1) == [2, 4]
        assert _neighbor_values(hp, 4) == [2, 1]
        assert _neighbor_values(OrdinalHyperparameter("P0", [1, 2]), 1) == [2]
        assert _neighbor_values(OrdinalHyperparameter("P0", [1]), 1) == []

    def test_single_value_encode(self):
        assert OrdinalHyperparameter("P0", [5]).encode(5) == 0.0

    @given(st.lists(st.integers(0, 100), min_size=2, max_size=20, unique=True))
    def test_encode_in_unit_interval(self, values):
        hp = OrdinalHyperparameter("P", values)
        for v in values:
            assert 0.0 <= hp.encode(v) <= 1.0
