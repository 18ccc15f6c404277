"""Hypothesis property tests for the new kernels' configuration spaces.

Three invariants the registry subsystem leans on, checked over random seeds,
kernels, and index vectors:

* sampling stays in bounds — every sampled value is one of the declared
  candidates;
* :func:`~repro.configspace.space.space_hash` is invariant to hyperparameter
  declaration order (the conformance battery compares hashes across runs that
  may build spaces differently), and every registered space's digest is
  pinned, since warm-start and transfer stores key on it;
* the space's :class:`~repro.configspace.space.IndexView` round-trips with
  the candidate lists — decode then re-encode recovers the same index row —
  and numbers the configurations in AutoTVM's mixed-radix order (first
  parameter fastest), which the AutoTVM strategies search.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.bench.polybench import PLUGIN_KERNELS
from repro.bench.registry import benchmark_pairs, get_benchmark
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
    view = bench.config_space(seed=seed).index_view()
    for row in view.sample(8):
        config = view.configuration(row)
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
    code, stride = 0, 1
    for p, i in zip(bench.params, indices):
        code += i * stride
        stride *= len(bench.candidates[p])
    assert int(view.codes(np.array(indices))) == code
    assert view.rows(code).tolist() == indices
    assert len(view) == stride == bench.space_size()


@settings(max_examples=30, deadline=None)
@given(kernel=kernel_st, size=size_st, seed=seed_st)
def test_space_hash_stable_across_builds(kernel, size, seed):
    bench = get_benchmark(kernel, size)
    assert space_hash(bench.config_space(seed=seed)) == space_hash(
        bench.config_space(seed=seed + 1)
    )


#: ``space_hash`` of every registered (kernel, size) space. Stores written by
#: earlier versions key on these digests; a change to ``space_hash`` or to a
#: candidate list that moves one orphans every stored run of that space.
SPACE_HASHES = {
    ("3mm", "mini"): "3a6786fbfc435fef",
    ("3mm", "small"): "3d74edd79932e4c9",
    ("3mm", "medium"): "ea519c24d9d6f59a",
    ("3mm", "large"): "4feda4703595da12",
    ("3mm", "extralarge"): "cc841559b0a97b8f",
    ("cholesky", "mini"): "259a55182df21f81",
    ("cholesky", "small"): "b7be4245ca40f3cf",
    ("cholesky", "medium"): "1529620ee60faa3a",
    ("cholesky", "large"): "718d1a48aa340d21",
    ("cholesky", "extralarge"): "3d28a3ec18ae2386",
    ("gemm", "mini"): "313aba1f4be4f585",
    ("gemm", "small"): "cb543352443edfa0",
    ("gemm", "medium"): "f7bc43f7e56a9474",
    ("gemm", "large"): "d35cb4969fe5d71f",
    ("gemm", "extralarge"): "524c38c254ef96d6",
    ("jacobi2d", "mini"): "26f3bcedf34d3e6b",
    ("jacobi2d", "small"): "01b17610653eb124",
    ("jacobi2d", "medium"): "1611b6be0762bbb3",
    ("jacobi2d", "large"): "b05b9d211a42989c",
    ("jacobi2d", "extralarge"): "a510d41772358ec1",
    ("lu", "mini"): "259a55182df21f81",
    ("lu", "small"): "b7be4245ca40f3cf",
    ("lu", "medium"): "1529620ee60faa3a",
    ("lu", "large"): "718d1a48aa340d21",
    ("lu", "extralarge"): "3d28a3ec18ae2386",
    ("syrk", "mini"): "a336773080ef18b3",
    ("syrk", "small"): "b984945681a9c0f4",
    ("syrk", "medium"): "a2993aa27135735c",
    ("syrk", "large"): "2350baaba7603627",
    ("syrk", "extralarge"): "718d1a48aa340d21",
    ("trmm", "mini"): "6a852e9470051aba",
    ("trmm", "small"): "018ef4c83ba0bf33",
    ("trmm", "medium"): "9c4de5fc80e63891",
    ("trmm", "large"): "10ecc2dba5ca75f7",
    ("trmm", "extralarge"): "1059a2094b031076",
}


def test_space_hash_digests_are_pinned():
    assert sorted(SPACE_HASHES) == sorted(benchmark_pairs())
    for (kernel, size), digest in SPACE_HASHES.items():
        space = get_benchmark(kernel, size).config_space(seed=0)
        assert space_hash(space) == digest, f"{kernel}/{size}"
