"""Table 1: parameter-space size for each application.

Regenerates the table from the kernel definitions (divisors of the split axis
extents) and benchmarks the space-construction machinery itself.
"""

from repro.common.tabulate import format_table
from repro.kernels import TABLE1_SPACE_SIZES, get_benchmark


def test_table1_regeneration(benchmark):
    def build_all():
        rows = []
        for (kernel, size), paper_value in sorted(TABLE1_SPACE_SIZES.items()):
            measured = get_benchmark(kernel, size).space_size()
            rows.append([kernel, size, f"{paper_value:,}", f"{measured:,}",
                         "OK" if measured == paper_value else "MISMATCH"])
        return rows

    rows = benchmark(build_all)
    print()
    print(format_table(
        rows,
        headers=["kernel", "problem size", "paper Table 1", "measured", ""],
        title="Table 1: Parameter space for each application",
    ))
    assert all(r[-1] == "OK" for r in rows)


def test_config_space_construction_speed(benchmark):
    """ConfigSpace construction for the largest space (228M configs)."""
    cs = benchmark(get_benchmark("3mm", "extralarge").config_space, 0)
    assert int(cs.size()) == 228_614_400


def test_config_space_sampling_speed(benchmark):
    cs = get_benchmark("3mm", "extralarge").config_space(seed=0)
    samples = benchmark(cs.sample_configuration, 100)
    assert len(samples) == 100
