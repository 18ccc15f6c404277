#!/usr/bin/env python
"""CI entry point for the backend-tier / BO-hot-path benchmark harness.

Runs ``benchmarks/bench_backend_tiers.py`` (quick preset by default) and
splits the result into the two committed baseline documents:

* ``BENCH_compiler.json`` — per-case tier timings, native-vs-tensor /
  tensor-vs-interp / tensor-vs-codegen speedup ratios, the native compile
  time of lu-96 and 3mm-mini and its ratio to a fixed reference recipe, and
  the tensorized and native tiers' coverage over the registered paper
  benchmarks;
* ``BENCH_search.json`` — batched-sampling speedup and the 100-eval
  ask-loop overhead / full-RF loop times.

Modes:

* default — run the harness and (over)write both JSON files;
* ``--check`` — run the harness and compare against the committed files
  *without* rewriting them. Exits non-zero when an executable tier
  regresses: any case's ``speedup_tensor_vs_interp`` / ``_vs_codegen`` /
  ``speedup_native_vs_tensor`` below ``RATIO_FLOOR`` × baseline, tier
  coverage dropping below the baseline, or the native tier losing to the
  tensor tier (ratio < 1.0) on more than one of the paper-kernel gate cases,
  a case's ``compile_vs_reference`` rising above its committed value /
  ``RATIO_FLOOR`` (a header or libc link coming back into the native
  compile), or the Random-Forest ask loop growing above its committed
  multiple of the surrogate-free ask loop by more than 1 / ``RATIO_FLOOR``.
  Only dimensionless ratios are gated — absolute seconds do not transfer
  across machines, so they are reported but never compared.

Run:  python scripts/bench_to_json.py [--check] [--preset quick|full]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

COMPILER_JSON = REPO_ROOT / "BENCH_compiler.json"
SEARCH_JSON = REPO_ROOT / "BENCH_search.json"

# A fresh run must stay within this fraction of the committed speedup ratio.
# 0.8 == "fail when the tensorized tier regresses by more than 20%".
RATIO_FLOOR = 0.8

_RATIO_KEYS = ("speedup_tensor_vs_interp", "speedup_tensor_vs_codegen")

#: Native compile time over the reference recipe's on the same translation
#: units (lower is better); gated against committed / RATIO_FLOOR.
COMPILE_KEY = "compile_vs_reference"

# The native tier is gated *absolutely*, not against the committed baseline:
# its per-call times are microseconds, so the native-vs-tensor ratio swings
# far more run-to-run (and machine-to-machine) than the interp/codegen
# ratios. The invariant that matters is that compiled C actually beats the
# tensor tier (ratio >= 1.0) on at least NATIVE_MIN_WINS paper kernels.
NATIVE_GATE_CASES = ("lu-96", "cholesky-96", "3mm-mini")
NATIVE_MIN_WINS = 2


def surrogate_cost_ratio(search: dict) -> float:
    """RF ask loop per eval over the DummySurrogate loop per eval.

    Both loops run the same sampling and acquisition code on the same
    machine, so their ratio isolates what the forest's fit and predict cost.
    """
    return search["ask_loop_rf_ms_per_eval"] / search["ask_overhead_ms_per_eval"]


def _write(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def merge_conservative(docs: list[dict]) -> dict:
    """Fold N compiler-bench runs into one conservative baseline.

    Every gated quantity (speedup ratios, coverage fractions) takes its
    *minimum* across the runs, so the committed floor reflects the noise band
    of the machine instead of one lucky sample; per-tier seconds take their
    minimum too (the least-noise estimate), and so does
    ``native_compile_ms``. ``compile_vs_reference`` is gated from above, so
    it takes its *maximum*. Non-numeric fields come from the last run.
    """
    merged = json.loads(json.dumps(docs[-1]))
    by_name = [{c["name"]: c for c in d.get("cases", [])} for d in docs]
    for case in merged.get("cases", []):
        runs = [m[case["name"]] for m in by_name if case["name"] in m]
        picks = dict.fromkeys((*_RATIO_KEYS, "speedup_native_vs_tensor", "native_compile_ms"), min)
        picks[COMPILE_KEY] = max
        for key, pick in picks.items():
            vals = [r[key] for r in runs if key in r]
            if vals and key in case:
                case[key] = pick(vals)
        for tier, entry in case.get("tiers", {}).items():
            entry["seconds"] = min(
                r["tiers"][tier]["seconds"] for r in runs if tier in r.get("tiers", {})
            )
    cov = merged.get("coverage", {})
    for key in ("coverage", "tensor_fraction", "native_fraction"):
        vals = [d.get("coverage", {}).get(key) for d in docs]
        vals = [v for v in vals if v is not None]
        if vals and key in cov:
            cov[key] = min(vals)
    return merged


def check(compiler: dict, search: dict) -> list[str]:
    """Compare a fresh harness run against the committed baselines.

    Returns a list of human-readable failure strings (empty == pass).
    """
    failures: list[str] = []
    if not COMPILER_JSON.exists():
        return [f"missing baseline {COMPILER_JSON.name} — run without --check first"]
    baseline = json.loads(COMPILER_JSON.read_text())

    base_cases = {c["name"]: c for c in baseline.get("cases", [])}
    new_cases = {c["name"]: c for c in compiler.get("cases", [])}
    for name, base in base_cases.items():
        new = new_cases.get(name)
        if new is None:
            failures.append(f"case {name!r} present in baseline but not in this run")
            continue
        for key in _RATIO_KEYS:
            if key not in base:
                continue
            if key not in new:
                failures.append(f"{name}: baseline has {key} but this run does not")
                continue
            floor = RATIO_FLOOR * base[key]
            if new[key] < floor:
                failures.append(
                    f"{name}: {key} regressed — {new[key]:.1f}x vs baseline "
                    f"{base[key]:.1f}x (floor {floor:.1f}x)"
                )
        if COMPILE_KEY in base:
            ceiling = base[COMPILE_KEY] / RATIO_FLOOR
            if COMPILE_KEY not in new:
                failures.append(f"{name}: baseline has {COMPILE_KEY} but this run does not")
            elif new[COMPILE_KEY] > ceiling:
                failures.append(
                    f"{name}: native compile regressed — {new[COMPILE_KEY]:.2f}x the "
                    f"reference recipe vs baseline {base[COMPILE_KEY]:.2f}x "
                    f"(ceiling {ceiling:.2f}x)"
                )

    # Machine-independent absolute gate: native beats tensor on at least
    # NATIVE_MIN_WINS of the paper-kernel gate cases.
    gated = [c for c in NATIVE_GATE_CASES if c in new_cases]
    wins = sum(
        1
        for c in gated
        if new_cases[c].get("speedup_native_vs_tensor", 0.0) >= 1.0
    )
    if gated and wins < NATIVE_MIN_WINS:
        failures.append(
            f"native tier beats tensor on only {wins}/{len(gated)} of "
            f"{', '.join(gated)} (need >= {NATIVE_MIN_WINS})"
        )

    base_cov = baseline.get("coverage", {})
    new_cov = compiler.get("coverage", {})
    for key in ("coverage", "tensor_fraction", "native_fraction"):
        if new_cov.get(key, 0.0) < base_cov.get(key, 0.0):
            failures.append(
                f"backend-tier {key} dropped: {new_cov.get(key)} < "
                f"baseline {base_cov.get(key)}"
            )

    # The search document's absolute seconds are informational; its
    # machine-independent invariants are that batching actually wins and
    # that the surrogate stays within its committed multiple of the
    # surrogate-free loop.
    if search.get("batch_sampling_speedup", 0.0) < 1.0:
        failures.append(
            "batch sampling slower than sequential: speedup "
            f"{search.get('batch_sampling_speedup'):.2f}x < 1.0x"
        )
    if SEARCH_JSON.exists():
        base_ratio = surrogate_cost_ratio(json.loads(SEARCH_JSON.read_text()))
        ceiling = base_ratio / RATIO_FLOOR
        ratio = surrogate_cost_ratio(search)
        if ratio > ceiling:
            failures.append(
                f"RF ask loop regressed — {ratio:.1f}x the surrogate-free loop "
                f"vs baseline {base_ratio:.1f}x (ceiling {ceiling:.1f}x)"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", choices=("quick", "full"), default="quick")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the committed BENCH_*.json instead of rewriting",
    )
    parser.add_argument(
        "--runs", type=int, default=1,
        help="when (re)writing baselines, run the harness this many times "
        "and commit the minimum of every gated ratio — a conservative floor "
        "that absorbs machine noise (ignored with --check)",
    )
    opts = parser.parse_args(argv)

    from bench_backend_tiers import run  # noqa: E402 (sys.path set above)

    result = run(opts.preset, opts.repeats)
    compiler, search = result["compiler"], result["search"]
    if not opts.check and opts.runs > 1:
        docs = [compiler]
        for _ in range(opts.runs - 1):
            docs.append(run(opts.preset, opts.repeats)["compiler"])
        compiler = merge_conservative(docs)

    if opts.check:
        failures = check(compiler, search)
        if failures:
            print("PERF REGRESSION:", file=sys.stderr)
            for f in failures:
                print(f"  - {f}", file=sys.stderr)
            return 1
        print("perf check passed:")
        for case in compiler["cases"]:
            ratios = ", ".join(
                f"{k.split('_vs_')[1]} {case[k]:.1f}x" for k in _RATIO_KEYS if k in case
            )
            if COMPILE_KEY in case:
                ratios += (f", compile {case['native_compile_ms']:.0f} ms = "
                           f"{case[COMPILE_KEY]:.2f}x the reference recipe")
            print(f"  {case['name']}: {ratios}")
        cov = compiler["coverage"]
        print(f"  coverage {cov['coverage']:.2f}, tensor fraction "
              f"{cov['tensor_fraction']:.2f}, native fraction "
              f"{cov.get('native_fraction', 0.0):.2f}")
        print(f"  ask overhead {search['ask_overhead_ms_per_eval']:.2f} ms/eval, "
              f"RF ask loop {surrogate_cost_ratio(search):.1f}x of it, "
              f"batch sampling {search['batch_sampling_speedup']:.1f}x")
        return 0

    _write(COMPILER_JSON, compiler)
    _write(SEARCH_JSON, search)
    print(f"wrote {COMPILER_JSON.name} and {SEARCH_JSON.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
