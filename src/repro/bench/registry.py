"""The tuner registry: one :class:`~repro.bench.protocols.TunerSpec` per
search family, keyed by name.

The seven built-in families from :mod:`repro.bench.tuners` are registered
lazily on first lookup, so importing :mod:`repro.bench` stays cheap and user
registrations can happen before or after the builtins land. Benchmarks live
in the one benchmark table of :mod:`repro.kernels.registry`.

Lookups raise the typed :class:`~repro.common.errors.RegistryError` carrying
the available entries, which is what ``repro list`` and service admission
render.
"""

from __future__ import annotations

from repro.common.errors import RegistryError
from repro.bench.protocols import TunerSpec

_TUNERS: dict[str, TunerSpec] = {}
_builtins_loaded = False


def _ensure_builtins() -> None:
    global _builtins_loaded
    if _builtins_loaded:
        return
    _builtins_loaded = True
    # Imported here: repro.bench.tuners registers through this module.
    from repro.bench import tuners

    tuners.register_builtin_tuners()


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


def _reset_for_tests() -> None:
    """Drop user tuner registrations; the builtins land again on the next
    lookup (test isolation helper)."""
    global _builtins_loaded
    _TUNERS.clear()
    _builtins_loaded = False
