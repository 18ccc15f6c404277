"""Registry discovery, protocol conformance, and typed lookup errors."""

import pytest

from repro.bench import (
    BenchmarkEntry,
    TunerSpec,
    benchmark_entries,
    benchmark_entry,
    benchmark_names,
    benchmark_pairs,
    get_benchmark,
    get_tuner,
    register_benchmark,
    register_tuner,
    tuner_names,
    tuner_specs,
)
from repro.bench import registry as bench_registry
from repro.common.errors import RegistryError, ReproError
from repro.kernels import registry as kernel_registry
from repro.kernels.registry import PLUGIN_KERNELS, KernelBenchmark

PAPER_KERNELS = ("3mm", "lu", "cholesky")
PAPER_TUNERS = (
    "ytopt", "AutoTVM-Random", "AutoTVM-GridSearch", "AutoTVM-GA", "AutoTVM-XGB"
)


@pytest.fixture(autouse=True)
def _isolated_registry():
    """Every test starts and ends with exactly the builtin registrations."""
    bench_registry._reset_for_tests()
    kernel_registry._reset_for_tests()
    yield
    bench_registry._reset_for_tests()
    kernel_registry._reset_for_tests()


class TestDiscovery:
    def test_seven_benchmarks_registered(self):
        names = benchmark_names()
        assert len(names) >= 7
        for kernel in PAPER_KERNELS + PLUGIN_KERNELS:
            assert kernel in names

    def test_seven_tuners_registered_paper_order_first(self):
        names = tuner_names()
        assert len(names) >= 7
        assert tuple(names[:5]) == PAPER_TUNERS
        assert "ytopt-gp" in names and "ytopt-tpe" in names

    def test_entries_and_specs_align_with_names(self):
        assert [e.kernel for e in benchmark_entries()] == benchmark_names()
        assert [s.name for s in tuner_specs()] == tuner_names()

    def test_benchmark_pairs_cover_all_sizes(self):
        pairs = benchmark_pairs()
        for kernel in PAPER_KERNELS + PLUGIN_KERNELS:
            for size in ("mini", "small", "medium", "large", "extralarge"):
                assert (kernel, size) in pairs

    def test_paper_vs_plugin_tags(self):
        for kernel in PAPER_KERNELS:
            assert "paper" in benchmark_entry(kernel).tags
        for kernel in PLUGIN_KERNELS:
            assert "plugin" in benchmark_entry(kernel).tags

    def test_tuner_families(self):
        for name in ("ytopt", "ytopt-gp", "ytopt-tpe"):
            assert get_tuner(name).family == "bo"
        for name in PAPER_TUNERS[1:]:
            assert get_tuner(name).family == "autotvm"

    def test_only_ytopt_supports_transfer(self):
        supports = [s.name for s in tuner_specs() if s.supports_transfer]
        assert supports == ["ytopt"]


class TestProtocolConformance:
    @pytest.mark.parametrize("kernel", PAPER_KERNELS + PLUGIN_KERNELS)
    def test_every_builtin_satisfies_benchmark_protocol(self, kernel):
        bench = get_benchmark(kernel, "mini")
        assert isinstance(bench, KernelBenchmark)
        assert bench.kernel == kernel
        assert bench.name == f"{kernel}-mini"
        assert bench.space_size() >= 1
        space = bench.config_space(seed=0)
        assert sorted(h.name for h in space.get_hyperparameters()) == sorted(
            bench.params
        )

    def test_kernels_registry_delegates_plugins(self):
        from repro.kernels import get_benchmark as kernels_get_benchmark

        bench = kernels_get_benchmark("gemm", "mini")
        assert bench.kernel == "gemm"
        assert isinstance(bench, KernelBenchmark)


class TestTypedErrors:
    def test_unknown_benchmark(self):
        with pytest.raises(RegistryError) as exc:
            get_benchmark("nosuch", "mini")
        assert exc.value.kind == "benchmark"
        assert exc.value.requested == "nosuch"
        assert "gemm" in exc.value.available
        assert "nosuch" in str(exc.value) and "gemm" in str(exc.value)

    def test_unknown_size(self):
        with pytest.raises(RegistryError) as exc:
            get_benchmark("gemm", "nosuch")
        assert exc.value.requested == "nosuch"
        assert "mini" in exc.value.available

    def test_unknown_tuner(self):
        with pytest.raises(RegistryError) as exc:
            get_tuner("nosuch")
        assert exc.value.kind == "tuner"
        assert "ytopt" in exc.value.available

    def test_registry_error_is_repro_error(self):
        # Callers catching the project-wide base keep working.
        with pytest.raises(ReproError):
            get_tuner("nosuch")


class TestRegistration:
    def _entry(self, kernel="custom"):
        gemm = benchmark_entry("gemm")
        return BenchmarkEntry(
            kernel=kernel,
            sizes=("mini",),
            factory=gemm.factory,
            description="user plugin",
            tags=("test",),
        )

    def test_register_and_lookup_roundtrip(self):
        register_benchmark(self._entry())
        assert "custom" in benchmark_names()
        assert get_benchmark("custom", "mini").kernel == "gemm"

    def test_duplicate_benchmark_rejected_without_replace(self):
        register_benchmark(self._entry())
        with pytest.raises(RegistryError, match="already registered"):
            register_benchmark(self._entry())
        register_benchmark(self._entry(), replace=True)  # explicit replace ok

    def test_replaced_builtin_reaches_every_lookup(self):
        # One table: sessions, admission and both get_benchmark spellings
        # all build the replacement (the fixture restores the builtin lu).
        from repro.service.jobs import JobRejected, JobSpec
        from repro.service.session import TuningSession

        register_benchmark(
            BenchmarkEntry(kernel="lu", sizes=("mini",),
                           factory=benchmark_entry("gemm").factory),
            replace=True,
        )
        assert get_benchmark("lu", "mini").kernel == "gemm"
        assert kernel_registry.get_benchmark("lu", "mini").kernel == "gemm"
        with pytest.raises(JobRejected, match="unknown size"):
            JobSpec(kernel="lu", size="large").validate()
        session = TuningSession(JobSpec(kernel="lu", size="mini", max_evals=4, seed=0))
        assert session.benchmark.kernel == "gemm"
        run = session.run()
        assert run.kernel == "gemm" and run.n_evals == 4
        assert run.best_config["P1"] in get_benchmark("gemm", "mini").candidates["P1"]

    def test_duplicate_tuner_rejected_without_replace(self):
        spec = TunerSpec(
            name="custom-tuner",
            family="bo",
            description="user tuner",
            factory=get_tuner("ytopt").factory,
        )
        register_tuner(spec)
        assert "custom-tuner" in tuner_names()
        with pytest.raises(RegistryError, match="already registered"):
            register_tuner(spec)
        register_tuner(spec, replace=True)

    def test_user_registrations_append_after_builtins(self):
        register_tuner(
            TunerSpec(
                name="aaa-first-alphabetically",
                family="bo",
                description="",
                factory=get_tuner("ytopt").factory,
            )
        )
        names = tuner_names()
        # Paper order stays first even for alphabetically-earlier additions.
        assert tuple(names[:5]) == PAPER_TUNERS
        assert names[-1] != "ytopt" and "aaa-first-alphabetically" in names[5:]


class TestServiceAdmission:
    def test_jobspec_accepts_any_registered_pair(self):
        from repro.service.jobs import JobSpec

        JobSpec(kernel="jacobi2d", size="mini", tuner="ytopt-tpe").validate()
        JobSpec(kernel="syrk", size="small", tuner="ytopt-gp").validate()

    def test_jobspec_rejects_unregistered(self):
        from repro.service.jobs import JobRejected, JobSpec

        with pytest.raises(JobRejected, match="unknown kernel"):
            JobSpec(kernel="nosuch", size="mini").validate()
        with pytest.raises(JobRejected, match="unknown size"):
            JobSpec(kernel="gemm", size="nosuch").validate()
        with pytest.raises(JobRejected, match="unknown tuner"):
            JobSpec(kernel="gemm", size="mini", tuner="nosuch").validate()
