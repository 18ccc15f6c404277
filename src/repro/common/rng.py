"""Random-number-generator plumbing and stable hashing.

All stochastic components in the package take a ``seed | Generator | None`` and pass
it through :func:`ensure_rng`, so experiments are reproducible bit-for-bit. Stable
hashes (independent of ``PYTHONHASHSEED``) give the simulated measurement backend
deterministic per-configuration "noise".
"""

from __future__ import annotations

import hashlib

import numpy as np

RngLike = "int | np.random.Generator | None"


def ensure_rng(seed: "int | np.random.Generator | None") -> np.random.Generator:
    """Coerce a seed / generator / None into a ``numpy.random.Generator``."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_seed(rng: np.random.Generator) -> np.int64:
    """The seed :func:`spawn_rng` draws from ``rng`` for a child generator."""
    return rng.integers(0, 2**63 - 1)


def spawn_rng(rng: np.random.Generator) -> np.random.Generator:
    """Derive an independent child generator (for parallel components)."""
    return np.random.default_rng(spawn_seed(rng))


def stable_hash_u64(*parts: object) -> int:
    """A process-independent 64-bit hash of the repr of ``parts``.

    Unlike ``hash()``, this does not vary with ``PYTHONHASHSEED``, so simulated
    measurements keyed on configurations are reproducible across processes.
    """
    blob = "\x1f".join(repr(p) for p in parts).encode("utf-8")
    digest = hashlib.blake2b(blob, digest_size=8).digest()
    return int.from_bytes(digest, "little")


def stable_hash01(*parts: object) -> float:
    """Stable hash mapped to a float in ``[0, 1)``."""
    return stable_hash_u64(*parts) / 2.0**64
