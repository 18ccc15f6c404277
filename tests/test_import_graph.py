"""Import-graph gate: a Swing-priced session loads only what it runs.

Package ``__init__``s resolve their names on first use (``repro._lazy``),
and the compiler, the asyncio server, the multi-fidelity wrapper, the build
pool and AutoTVM load where they are used.
Each check runs in a fresh interpreter, so nothing imported by this test
process can hide an eager edge.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Modules (and their submodules) a Swing-priced session never needs.
NOT_ON_SWING_PATH = (
    "repro.tir",
    "repro.te",
    "repro.runtime.module",
    "repro.runtime.fidelity",
    "repro.service.server",
    "repro.autotvm",
    "repro.pipeline",
    "asyncio",
    "multiprocessing",
)

#: The packages whose names resolve on first access.
LAZY_PACKAGES = (
    "repro",
    "repro.experiments",
    "repro.runtime",
    "repro.service",
    "repro.kernels",
    "repro.swing",
    "repro.ytopt",
    "repro.ml",
)


def _run(code: str, *args: str) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON document."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _off_path(modules, packages=NOT_ON_SWING_PATH) -> list[str]:
    return sorted(
        m for m in modules
        if any(m == p or m.startswith(p + ".") for p in packages)
    )


SESSION = """
import json, os, sys
from repro.service.jobs import JobSpec
from repro.service.session import TuningSession

workdir = sys.argv[1]
session = TuningSession(
    JobSpec(kernel="lu", size="large", max_evals=120, seed=0),
    store_path=os.path.join(workdir, "store.sqlite"),
    trace_path=os.path.join(workdir, "trace.jsonl"),
)
before = set(sys.modules)
run = session.run()
print(json.dumps({
    "modules": sorted(sys.modules),
    "in_run": sorted(set(sys.modules) - before),
    "n_evals": run.n_evals,
}))
"""


def test_swing_session_loads_no_compiler_and_nothing_inside_run(tmp_path):
    out = _run(SESSION, str(tmp_path))
    assert out["n_evals"] == 120
    assert _off_path(out["modules"]) == []
    assert out["in_run"] == []


def test_cli_import_stays_off_the_compiler():
    out = _run("import json, sys\nimport repro.cli\nprint(json.dumps(sorted(sys.modules)))")
    assert _off_path(out) == []


#: What building the CLI parser never needs: the ``--kernel``, ``--tuner``
#: and experiment choices are registry names, and every command (the thin
#: service clients too) builds the parser.
NOT_FOR_THE_PARSER = NOT_ON_SWING_PATH + (
    "repro.core",
    "repro.ytopt",
    "repro.ml",
    "repro.service.session",
    "repro.experiments.runner",
    "repro.experiments.stats",
)


def test_cli_parser_loads_no_search_stack():
    out = _run(
        "import json, sys\n"
        "from repro.cli import build_parser\n"
        "from repro.experiments import EXPERIMENT_FIGURES\n"
        "from repro.bench import benchmark_names, tuner_names\n"
        "build_parser()\n"
        "print(json.dumps([sorted(sys.modules), tuner_names(), benchmark_names(),\n"
        "                  list(EXPERIMENT_FIGURES)]))"
    )
    modules, tuners, benchmarks, experiments = out
    assert _off_path(modules, NOT_FOR_THE_PARSER) == []
    assert len(tuners) == 7 and len(benchmarks) == 7
    assert "lu-large" in experiments


def test_benchmark_registry_loads_no_bench_package():
    """The one benchmark table lives in ``repro.kernels``; ``repro.bench``
    re-exports it and never the other way round."""
    out = _run(
        "import json, sys\n"
        "from repro.kernels.registry import benchmark_pairs, get_benchmark\n"
        "pairs = benchmark_pairs()\n"
        "for kernel, size in pairs:\n"
        "    get_benchmark(kernel, size)\n"
        "print(json.dumps([sorted(sys.modules), len(pairs)]))"
    )
    modules, n_pairs = out
    assert n_pairs == 35
    assert _off_path(modules, NOT_ON_SWING_PATH + ("repro.bench",)) == []


RESOLVE = """
import importlib, inspect, json, sys

packages = sys.argv[1:]
missing = []
for name in packages:
    package = importlib.import_module(name)
    for attr in package.__all__:
        if not hasattr(package, attr) or attr not in dir(package):
            missing.append(f"{name}.{attr}")
    namespace = {}
    exec(f"from {name} import *", namespace)
    missing += [f"{name}.{a} (star)" for a in package.__all__ if a not in namespace]

# Submodules still import through a lazy package.
from repro.service import protocol
from repro.ml import native

import repro.runtime.measure
import repro.tir
from repro.common import toolchain
from repro.tir.codegen_c import find_toolchain, compile_source, native_key, CC_FLAGS

codegen = sys.modules["repro.tir.codegen_c"]
print(json.dumps({
    "missing": missing,
    "same_object": repro.runtime.LocalEvaluator is repro.runtime.measure.LocalEvaluator,
    "tir_lower_is_function": inspect.isfunction(repro.tir.lower),
    "tir_codegen_c_is_function": inspect.isfunction(repro.tir.codegen_c),
    "reexports": [
        getattr(codegen, n) is getattr(toolchain, n)
        for n in ("find_toolchain", "compile_source", "native_key", "CC_FLAGS",
                  "Toolchain", "NativeToolchainError", "NativeCompileError",
                  "source_key")
    ],
    "imported": [f is getattr(toolchain, f.__name__)
                 for f in (find_toolchain, compile_source, native_key)],
    "flags": CC_FLAGS == toolchain.CC_FLAGS,
    "submodules": [protocol.__name__, native.__name__],
}))
"""


def test_every_public_name_still_resolves():
    out = _run(RESOLVE, *LAZY_PACKAGES)
    assert out["missing"] == []
    assert out["same_object"]
    assert out["tir_lower_is_function"]
    assert out["tir_codegen_c_is_function"]
    assert all(out["reexports"])
    assert all(out["imported"]) and out["flags"]
    assert out["submodules"] == ["repro.service.protocol", "repro.ml.native"]


KEYS = """
import json
from unittest import mock
from repro.common.toolchain import CC_FLAGS, Toolchain, native_key, source_key
from repro.ml import native

tc = Toolchain("/usr/bin/cc", "cc (Debian 12.2.0-14+deb12u1) 12.2.0")
source = "void repro_probe(void) {}\\n"
with mock.patch("platform.machine", return_value="x86_64"):
    print(json.dumps({
        "source": source_key(source),
        "kernel": native_key(source, tc),
        "grower_flags": native._flags() == CC_FLAGS + ("-ffp-contract=off",),
        "grower": native_key(source, tc, native._flags()),
    }))
"""


def test_native_key_is_unchanged():
    """Keys recorded before the toolchain moved out of ``repro.tir``: a
    grower library (or kernel ``.so``) published earlier is still found."""
    out = _run(KEYS)
    assert out["source"] == "6bc050b183ecf43123c919d31f2b59a8825ba53f43a990f45067c84338216cc4"
    assert out["kernel"] == "b778cbd7d669b9053b9467a230736ee2a0c7141e02efa66a112b1bd96bafb74f"
    assert out["grower_flags"]
    assert out["grower"] == "e6d8c8e62fb209f0e47ebc7b33ac74cc7b998b003242efbc2333b824dae5c645"
