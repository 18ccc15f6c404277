"""Hypothesis property tests for the new kernels' configuration spaces.

Three invariants the registry subsystem leans on, checked over random seeds,
kernels, and index vectors:

* sampling stays in bounds — every sampled value is one of the declared
  candidates;
* :func:`~repro.configspace.space.space_hash` is invariant to hyperparameter
  declaration order (the conformance battery compares hashes across runs that
  may build spaces differently);
* the space's :class:`~repro.configspace.space.IndexView` round-trips with
  the candidate lists — decode then re-encode recovers the same index row.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.bench.polybench import PLUGIN_KERNELS
from repro.bench.registry import get_benchmark
from repro.configspace import ConfigurationSpace, OrdinalHyperparameter
from repro.configspace.space import space_hash

KERNELS = PLUGIN_KERNELS + ("3mm", "lu", "cholesky")
SIZES = ("mini", "small")

kernel_st = st.sampled_from(KERNELS)
size_st = st.sampled_from(SIZES)
seed_st = st.integers(min_value=0, max_value=2**31 - 1)


@settings(max_examples=60, deadline=None)
@given(kernel=kernel_st, size=size_st, seed=seed_st)
def test_sampling_stays_in_bounds(kernel, size, seed):
    bench = get_benchmark(kernel, size)
    space = bench.config_space(seed=seed)
    configs, _ = space.sample_configuration_batch(8)
    for config in configs:
        for param in bench.params:
            assert config[param] in bench.candidates[param]


@settings(max_examples=60, deadline=None)
@given(kernel=kernel_st, size=size_st, data=st.data())
def test_space_hash_invariant_to_declaration_order(kernel, size, data):
    bench = get_benchmark(kernel, size)
    names = list(bench.params)
    order = data.draw(st.permutations(names))
    declared = ConfigurationSpace()
    for name in order:
        declared.add_hyperparameter(
            OrdinalHyperparameter(name, list(bench.candidates[name]))
        )
    assert space_hash(declared) == space_hash(bench.config_space(seed=0))


@settings(max_examples=60, deadline=None)
@given(kernel=kernel_st, size=size_st, data=st.data())
def test_index_view_round_trips(kernel, size, data):
    bench = get_benchmark(kernel, size)
    view = bench.config_space(seed=0).index_view()
    indices = [
        data.draw(st.integers(0, len(bench.candidates[p]) - 1), label=p)
        for p in bench.params
    ]
    config = view.configuration(np.array(indices))
    assert list(config) == list(bench.params)
    recovered = [
        bench.candidates[p].index(config[p]) for p in bench.params
    ]
    assert recovered == indices
    assert view.row_of(config).tolist() == indices


@settings(max_examples=30, deadline=None)
@given(kernel=kernel_st, size=size_st, seed=seed_st)
def test_space_hash_stable_across_builds(kernel, size, seed):
    bench = get_benchmark(kernel, size)
    assert space_hash(bench.config_space(seed=seed)) == space_hash(
        bench.config_space(seed=seed + 1)
    )
