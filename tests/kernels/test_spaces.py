"""Tests for the tuning parameter spaces — Table 1 of the paper — as each
registered benchmark carries them."""

import dataclasses

import pytest

from repro.common.divisors import divisors
from repro.kernels import TABLE1_SPACE_SIZES, get_benchmark, problem_size


class TestTable1:
    @pytest.mark.parametrize(("kernel", "size"), sorted(TABLE1_SPACE_SIZES))
    def test_space_sizes_match_paper(self, kernel, size):
        bench = get_benchmark(kernel, size)
        assert bench.space_size() == TABLE1_SPACE_SIZES[(kernel, size)]

    def test_3mm_extralarge_exact(self):
        assert get_benchmark("3mm", "extralarge").space_size() == 228_614_400

    def test_3mm_large_exact(self):
        assert get_benchmark("3mm", "large").space_size() == 74_649_600

    def test_solver_spaces_are_squares(self):
        assert get_benchmark("lu", "large").space_size() == 20**2
        assert get_benchmark("lu", "extralarge").space_size() == 24**2


class TestCandidates:
    def test_candidates_are_divisors_of_split_axes(self):
        size = problem_size("3mm", "extralarge")
        cands = get_benchmark("3mm", "extralarge").candidates
        assert cands["P0"] == tuple(divisors(size.n))  # E rows (N=1600)
        assert cands["P1"] == tuple(divisors(size.m))  # E cols (M=2000)
        assert cands["P2"] == tuple(divisors(size.m))  # F rows (M=2000)
        assert cands["P3"] == tuple(divisors(size.p))  # F cols (P=2400)
        assert cands["P4"] == tuple(divisors(size.n))  # G rows (N=1600)
        assert cands["P5"] == tuple(divisors(size.p))  # G cols (P=2400)

    def test_paper_candidate_counts(self):
        # The multiset of per-parameter counts matches the paper's printed
        # ConfigSpace (20, 21, 36, 20, 36, 21) regardless of axis binding.
        cands = get_benchmark("3mm", "extralarge").candidates
        counts = sorted(len(c) for c in cands.values())
        assert counts == sorted([20, 21, 36, 20, 36, 21])

    def test_solver_candidates(self):
        bench = get_benchmark("lu", "large")
        assert bench.params == ("P0", "P1")
        assert bench.candidates["P0"] == bench.candidates["P1"] == tuple(divisors(2000))


class TestConfigSpaceConstruction:
    def test_builds_ordinals(self):
        cs = get_benchmark("cholesky", "large").config_space(seed=0)
        assert cs.get_hyperparameter_names() == ["P0", "P1"]
        assert cs.size() == 400.0

    def test_3mm_space(self):
        cs = get_benchmark("3mm", "extralarge").config_space(seed=0)
        assert len(cs) == 6
        assert int(cs.size()) == 228_614_400

    def test_sampled_configs_are_valid_tiles(self):
        cs = get_benchmark("lu", "extralarge").config_space(seed=1)
        for cfg in cs.sample_configuration(20):
            assert 4000 % cfg["P0"] == 0
            assert 4000 % cfg["P1"] == 0

    def test_space_follows_the_benchmark_not_its_name(self):
        # The space is built from the benchmark's own candidates and named
        # after it, so a copy under another kernel name has the same space.
        bench = get_benchmark("gemm", "mini")
        renamed = dataclasses.replace(bench, kernel="mygemm")
        cs = renamed.config_space(seed=0)
        assert cs.name == "mygemm-mini"
        assert cs.get_hyperparameter_names() == list(bench.params)
        assert renamed.space_size() == bench.space_size() == int(cs.size())
