"""The pluggable benchmark × tuner registry.

Two flat registries keyed by name: benchmarks (one entry per kernel, each
listing its problem sizes and a ``size -> KernelBenchmark`` factory) and
tuners (one :class:`~repro.bench.protocols.TunerSpec` per search family).
Built-in entries — the paper's three kernels auto-adapted from
:mod:`repro.kernels.registry`, the PolyBench plugins from
:mod:`repro.bench.polybench`, and the seven tuner families from
:mod:`repro.bench.tuners` — are registered lazily on first lookup, so
importing :mod:`repro.bench` stays cheap and user registrations can happen
before or after the builtins land.

Lookups raise the typed :class:`~repro.common.errors.RegistryError` carrying
the available entries, which is what ``repro list`` and service admission
render.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.common.errors import RegistryError
from repro.bench.protocols import TunerSpec

if TYPE_CHECKING:
    from repro.kernels.registry import KernelBenchmark


@dataclass(frozen=True)
class BenchmarkEntry:
    """One registered kernel: its sizes and a ``size -> KernelBenchmark``
    factory."""

    kernel: str
    sizes: tuple[str, ...]
    factory: Callable[[str], KernelBenchmark]
    description: str = ""
    tags: tuple[str, ...] = ()

    def build(self, size_name: str) -> KernelBenchmark:
        if size_name not in self.sizes:
            raise RegistryError(
                f"problem size for benchmark {self.kernel!r}",
                size_name,
                list(self.sizes),
            )
        return self.factory(size_name)


_BENCHMARKS: dict[str, BenchmarkEntry] = {}
_TUNERS: dict[str, TunerSpec] = {}
_builtins_loaded = False


def _ensure_builtins() -> None:
    global _builtins_loaded
    if _builtins_loaded:
        return
    _builtins_loaded = True
    # Imported here (not at module top) to keep the cycle
    # kernels.registry -> bench.registry -> bench.polybench -> kernels.*
    # resolvable: by the time a lookup runs, all modules are importable.
    from repro.bench import polybench, tuners

    polybench.register_builtin_benchmarks()
    tuners.register_builtin_tuners()


# -- benchmark side --------------------------------------------------------


def register_benchmark(entry: BenchmarkEntry, replace: bool = False) -> BenchmarkEntry:
    """Add a kernel to the registry; ``replace=False`` guards collisions."""
    _ensure_builtins()
    if not replace and entry.kernel in _BENCHMARKS:
        raise RegistryError.duplicate("benchmark", entry.kernel)
    _BENCHMARKS[entry.kernel] = entry
    return entry


def benchmark_entry(kernel: str) -> BenchmarkEntry:
    _ensure_builtins()
    try:
        return _BENCHMARKS[kernel]
    except KeyError:
        raise RegistryError("benchmark", kernel, sorted(_BENCHMARKS)) from None


def get_benchmark(kernel: str, size_name: str) -> KernelBenchmark:
    """Build the registered benchmark for (kernel, size)."""
    return benchmark_entry(kernel).build(size_name)


def benchmark_names() -> list[str]:
    _ensure_builtins()
    return sorted(_BENCHMARKS)


def benchmark_entries() -> list[BenchmarkEntry]:
    _ensure_builtins()
    return [_BENCHMARKS[k] for k in sorted(_BENCHMARKS)]


def benchmark_pairs() -> list[tuple[str, str]]:
    """Every registered (kernel, size) pair, sorted."""
    _ensure_builtins()
    return [
        (kernel, size)
        for kernel in sorted(_BENCHMARKS)
        for size in _BENCHMARKS[kernel].sizes
    ]


# -- tuner side ------------------------------------------------------------


def register_tuner(spec: TunerSpec, replace: bool = False) -> TunerSpec:
    _ensure_builtins()
    if not replace and spec.name in _TUNERS:
        raise RegistryError.duplicate("tuner", spec.name)
    _TUNERS[spec.name] = spec
    return spec


def get_tuner(name: str) -> TunerSpec:
    _ensure_builtins()
    try:
        return _TUNERS[name]
    except KeyError:
        raise RegistryError("tuner", name, sorted(_TUNERS)) from None


def tuner_names() -> list[str]:
    """Registered tuner names — paper order first, additions after."""
    _ensure_builtins()
    from repro.bench.tuners import BUILTIN_ORDER

    ordered = [n for n in BUILTIN_ORDER if n in _TUNERS]
    extras = sorted(n for n in _TUNERS if n not in BUILTIN_ORDER)
    return ordered + extras


def tuner_specs() -> list[TunerSpec]:
    return [_TUNERS[n] for n in tuner_names()]


def _reset_for_tests(keep_builtins: bool = True) -> None:
    """Drop user registrations (test isolation helper)."""
    global _builtins_loaded
    _BENCHMARKS.clear()
    _TUNERS.clear()
    _builtins_loaded = False
    if keep_builtins:
        _ensure_builtins()
