"""``-O1`` vs ``-O2`` for the native tier: compile time against kernel time.

For N seeded configurations of ``lu/small`` and of ``3mm/small`` (the
kernels of the e2e benchmark's two native workloads) the C is emitted once
through ``codegen_c`` and compiled at ``-O1`` and at ``-O2``, the rest of
``CC_FLAGS`` unchanged. Each build's compile (one ``compile_source`` call,
never a cache hit) and one kernel call (best of ``--repeats`` batched
samples, seeded inputs) are timed. The report gives one row per
configuration and, per kernel, the median ``-O1``/``-O2`` ratio of compile
and of kernel time; a tuning run pays one compile and a handful of kernel
calls per configuration, so the two ratios decide the level together.

Run:  PYTHONPATH=src python benchmarks/bench_opt_level.py [--lu N]
          [--threemm N] [--repeats R] [--json PATH]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from bench_backend_tiers import _best_time, _buffers
from repro.kernels.registry import get_benchmark
from repro.tir import lower, simplify_func
from repro.tir.codegen_c import (
    CC_FLAGS,
    _NativeEntry,
    codegen_c,
    compile_source,
    find_toolchain,
    native_key,
)

LEVELS = ("-O1", "-O2")


def recipe(level: str) -> tuple[str, ...]:
    """``CC_FLAGS`` with its optimisation level replaced by ``level``."""
    return tuple(level if flag == "-O2" else flag for flag in CC_FLAGS)


def draw_configs(bench, n: int, seed: int) -> list[dict[str, int]]:
    """``n`` distinct configurations drawn uniformly from the benchmark."""
    rng = np.random.default_rng(seed)
    seen, out = set(), []
    while len(out) < n:
        cfg = {
            p: bench.candidates[p][int(rng.integers(len(bench.candidates[p])))]
            for p in bench.params
        }
        key = tuple(sorted(cfg.items()))
        if key not in seen:
            seen.add(key)
            out.append(cfg)
    return out


def measure(kernel: str, n: int, seed: int, repeats: int) -> list[dict]:
    bench = get_benchmark(kernel, "small")
    toolchain = find_toolchain()
    rows = []
    for index, cfg in enumerate(draw_configs(bench, n, seed)):
        sched, args = bench.schedule_builder(cfg)
        func = simplify_func(lower(sched, args))
        source = codegen_c(func)
        row = {"kernel": kernel, "config": cfg}
        # Alternate which level compiles first, so drift hits both alike.
        for level in LEVELS if index % 2 == 0 else LEVELS[::-1]:
            flags = recipe(level)
            t0 = time.perf_counter()
            so_path = compile_source(source, toolchain, flags)
            compile_s = time.perf_counter() - t0
            entry = _NativeEntry(func, so_path, source, native_key(source, toolchain, flags))
            bufs = _buffers(args)
            entry(*bufs)  # warm-up
            row[level] = {
                "compile_ms": compile_s * 1e3,
                "kernel_us": _best_time(lambda e=entry, b=bufs: e(*b), repeats) * 1e6,
            }
        rows.append(row)
    return rows


def summarize(rows: list[dict]) -> dict:
    """Per kernel: median ``-O1``/``-O2`` ratios of compile and kernel time."""
    out = {}
    for kernel in sorted({r["kernel"] for r in rows}):
        mine = [r for r in rows if r["kernel"] == kernel]

        def ratio(key: str) -> float:
            return statistics.median(r["-O1"][key] / r["-O2"][key] for r in mine)

        out[kernel] = {
            "configs": len(mine),
            "compile_ms_O2": statistics.median(r["-O2"]["compile_ms"] for r in mine),
            "compile_ms_O1": statistics.median(r["-O1"]["compile_ms"] for r in mine),
            "compile_O1_over_O2": ratio("compile_ms"),
            "kernel_O1_over_O2": ratio("kernel_us"),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lu", type=int, default=12, help="lu/small configurations")
    parser.add_argument("--threemm", type=int, default=8, help="3mm/small configurations")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3,
                        help="kernel timing samples per build (the minimum is kept)")
    parser.add_argument("--json", help="write rows and summary to this path")
    opts = parser.parse_args(argv)

    rows = measure("lu", opts.lu, opts.seed, opts.repeats)
    rows += measure("3mm", opts.threemm, opts.seed, opts.repeats)
    for r in rows:
        o1, o2 = r["-O1"], r["-O2"]
        print(f"{r['kernel']:4} {r['config']}: compile {o1['compile_ms']:.0f} / "
              f"{o2['compile_ms']:.0f} ms, kernel {o1['kernel_us']:.1f} / "
              f"{o2['kernel_us']:.1f} us (-O1 / -O2)")
    summary = summarize(rows)
    for kernel, s in summary.items():
        print(f"{kernel}: {s['configs']} configs, -O1/-O2 median compile "
              f"{s['compile_O1_over_O2']:.2f}x, kernel {s['kernel_O1_over_O2']:.2f}x")
    if opts.json:
        doc = {"cc_flags": list(CC_FLAGS), "cc": find_toolchain().version,
               "rows": rows, "summary": summary}
        Path(opts.json).write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
