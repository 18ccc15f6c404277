"""ConfigurationSpace and Configuration.

The space owns an ordered set of hyperparameters, optional conditions, and a
seeded RNG. It samples configurations, validates them, reports the space size
(the paper's Table 1 numbers come straight from ``space.size()``), encodes
configurations to float vectors for surrogate models, and generates neighbor
configurations for local search.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping, Sequence

import numpy as np

from repro.common.errors import SpaceError
from repro.common.rng import ensure_rng
from repro.configspace.conditions import Condition
from repro.configspace.hyperparameters import Hyperparameter, _FiniteHyperparameter

#: Encoding slot for hyperparameters inactive under the space's conditions.
INACTIVE = -1.0


class Configuration(Mapping):
    """An immutable assignment of values to (active) hyperparameters."""

    def __init__(self, space: "ConfigurationSpace", values: Mapping[str, object]) -> None:
        self.space = space
        self._values = dict(values)
        self._array: np.ndarray | None = None
        space.check_configuration(self._values)

    @classmethod
    def _from_trusted(
        cls,
        space: "ConfigurationSpace",
        values: dict[str, object],
        array: "np.ndarray | None" = None,
    ) -> "Configuration":
        """Construct without validation — for values the space itself produced
        (batch sampling), where re-checking would only re-derive what the
        sampler already guaranteed."""
        self = cls.__new__(cls)
        self.space = space
        self._values = values
        if array is not None:
            array.setflags(write=False)
        self._array = array
        return self

    def get_dictionary(self) -> dict[str, object]:
        return dict(self._values)

    def get_array(self) -> np.ndarray:
        """The encoded float vector (memoized; treat as read-only)."""
        if self._array is None:
            self._array = self.space.encode(self._values)
            self._array.setflags(write=False)
        return self._array

    def __getitem__(self, key: str) -> object:
        return self._values[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Configuration):
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(sorted((k, repr(v)) for k, v in self._values.items())))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self._values.items()))
        return f"Configuration({inner})"


class ConfigurationSpace:
    """An ordered collection of hyperparameters with optional conditions."""

    def __init__(self, name: str = "space", seed: int | None = None) -> None:
        self.name = name
        self._rng = ensure_rng(seed)
        self._params: dict[str, Hyperparameter] = {}
        self._conditions: dict[str, Condition] = {}
        self._topo_cache: list[str] | None = None

    # -- construction ------------------------------------------------------

    def add_hyperparameter(self, hp: Hyperparameter) -> Hyperparameter:
        if hp.name in self._params:
            raise SpaceError(f"hyperparameter {hp.name} already in space")
        self._params[hp.name] = hp
        self._topo_cache = None
        return hp

    def add_hyperparameters(self, hps: Sequence[Hyperparameter]) -> list[Hyperparameter]:
        return [self.add_hyperparameter(hp) for hp in hps]

    def add_condition(self, cond: Condition) -> Condition:
        for hp in (cond.child, cond.parent):
            if hp.name not in self._params or self._params[hp.name] is not hp:
                raise SpaceError(
                    f"condition references hyperparameter {hp.name} not in this space"
                )
        if cond.child.name in self._conditions:
            raise SpaceError(f"hyperparameter {cond.child.name} already has a condition")
        # Reject condition cycles by walking parents.
        seen = {cond.child.name}
        cur: Condition | None = cond
        while cur is not None:
            pname = cur.parent.name
            if pname in seen:
                raise SpaceError(f"condition cycle through {pname}")
            seen.add(pname)
            cur = self._conditions.get(pname)
        self._conditions[cond.child.name] = cond
        self._topo_cache = None
        return cond

    # -- introspection -----------------------------------------------------

    def get_hyperparameters(self) -> list[Hyperparameter]:
        return list(self._params.values())

    def get_hyperparameter(self, name: str) -> Hyperparameter:
        try:
            return self._params[name]
        except KeyError:
            raise SpaceError(f"no hyperparameter named {name!r}") from None

    def get_hyperparameter_names(self) -> list[str]:
        return list(self._params)

    def size(self) -> float:
        """Number of distinct configurations (ignoring condition pruning, like
        the paper's Table 1 which multiplies candidate-list lengths)."""
        total = 1.0
        for hp in self._params.values():
            total *= hp.size()
        return total

    # -- activity / validation ---------------------------------------------

    def _is_active(self, name: str, values: Mapping[str, object]) -> bool:
        cond = self._conditions.get(name)
        if cond is None:
            return True
        if not self._is_active(cond.parent.name, values):
            return False
        if cond.parent.name not in values:
            return False
        return cond.satisfied(values[cond.parent.name])

    def check_configuration(self, values: Mapping[str, object]) -> None:
        """Raise :class:`SpaceError` unless ``values`` is complete and legal."""
        for name, value in values.items():
            hp = self._params.get(name)
            if hp is None:
                raise SpaceError(f"unknown hyperparameter {name!r}")
            if not self._is_active(name, values):
                raise SpaceError(f"hyperparameter {name} is inactive but has a value")
            if not hp.is_legal(value):
                raise SpaceError(f"{name}: illegal value {value!r}")
        for name in self._params:
            if self._is_active(name, values) and name not in values:
                raise SpaceError(f"active hyperparameter {name} missing a value")

    # -- sampling ------------------------------------------------------------

    def sample_configuration(self, size: int | None = None):
        """Sample one Configuration (or a list when ``size`` is given)."""
        if size is None:
            return self._sample_one()
        if size < 1:
            raise SpaceError(f"sample size must be >= 1, got {size}")
        return [self._sample_one() for _ in range(size)]

    def _topo_order(self) -> list[str]:
        """Hyperparameter names with every condition parent before its child
        (cached; construction invalidates)."""
        if self._topo_cache is not None:
            return self._topo_cache
        order: list[str] = []
        visited: set[str] = set()

        def visit(name: str) -> None:
            if name in visited:
                return
            visited.add(name)
            cond = self._conditions.get(name)
            if cond is not None:
                visit(cond.parent.name)
            order.append(name)

        for n in self._params:
            visit(n)
        self._topo_cache = order
        return order

    def _sample_one(self) -> Configuration:
        values: dict[str, object] = {}
        for name in self._topo_order():
            if self._is_active(name, values):
                values[name] = self._params[name].sample(self._rng)
        return Configuration(self, values)

    def sample_configuration_batch(
        self, n: int
    ) -> tuple[list[Configuration], np.ndarray]:
        """Sample ``n`` configurations plus their dense encoded matrix.

        Draws from the space RNG in exactly the same order as ``n`` calls to
        :meth:`sample_configuration` — the trajectories of seeded tuners are
        unchanged — but skips per-configuration re-validation (the sampler
        itself guarantees completeness/activity) and encodes each row once
        into a preallocated ``(n, len(space))`` matrix. The returned
        configurations carry views of those rows as their memoized
        :meth:`Configuration.get_array`.
        """
        if n < 0:
            raise SpaceError(f"sample size must be >= 0, got {n}")
        order = self._topo_order()
        names = list(self._params)
        slot = {name: i for i, name in enumerate(names)}
        params = self._params
        rng = self._rng
        X = np.full((n, len(names)), INACTIVE, dtype=float)
        configs: list[Configuration] = []
        for row in range(n):
            values = {}
            for name in order:
                if self._is_active(name, values):
                    v, e = params[name].sample_encoded(rng)
                    values[name] = v
                    X[row, slot[name]] = e
            configs.append(Configuration._from_trusted(self, values, X[row]))
        return configs, X

    def index_view(self) -> "IndexView | None":
        """The space as value-index rows (see :class:`IndexView`), or None
        unless it has hyperparameters, no conditions, fewer than 2**63
        configurations, and only unweighted finite hyperparameters — the
        registry's tiling spaces all qualify."""
        hps = list(self._params.values())
        if not hps or self._conditions:
            return None
        for hp in hps:
            if not isinstance(hp, _FiniteHyperparameter):
                return None
            if getattr(hp, "_weights", None) is not None:
                return None
        if math.prod(len(hp._values) for hp in hps) >= 2**63:
            return None
        return IndexView(self, hps)

    def enumerate_configurations(self) -> list[Configuration]:
        """Every distinct configuration of a finite space, in parameter order.

        Raises :class:`SpaceError` when any hyperparameter is continuous
        (infinite size). Conditions are honored: inactive children are left
        unset on each branch. Intended for small spaces — callers should check
        :meth:`size` first.
        """
        order = self._topo_order()
        out: list[Configuration] = []

        def values_of(hp: Hyperparameter) -> Sequence[object]:
            finite = getattr(hp, "_values", None)
            if finite is not None:  # Ordinal / Categorical
                return list(finite)
            if not math.isfinite(hp.size()):
                raise SpaceError(
                    f"cannot enumerate continuous hyperparameter {hp.name}"
                )
            lower = getattr(hp, "lower", None)
            if lower is not None:  # UniformInteger
                return list(range(int(lower), int(hp.upper) + 1))
            return [hp.value]  # Constant

        def rec(i: int, values: dict[str, object]) -> None:
            if i == len(order):
                out.append(Configuration._from_trusted(self, dict(values)))
                return
            name = order[i]
            if not self._is_active(name, values):
                rec(i + 1, values)
                return
            for v in values_of(self._params[name]):
                values[name] = v
                rec(i + 1, values)
                del values[name]

        rec(0, {})
        return out

    def default_configuration(self) -> Configuration:
        values = {
            name: hp.default_value
            for name, hp in self._params.items()
        }
        # Drop values of inactive children under the defaults.
        active = {n: v for n, v in values.items() if self._is_active(n, values)}
        return Configuration(self, active)

    # -- encoding / neighbors -------------------------------------------------

    def encode(self, values: Mapping[str, object]) -> np.ndarray:
        """Encode to a float vector, one slot per hyperparameter in order.

        Inactive hyperparameters encode as :data:`INACTIVE` (-1), outside the
        [0, 1] range of active encodings so tree surrogates can split them apart.
        """
        out = np.empty(len(self._params), dtype=float)
        for i, (name, hp) in enumerate(self._params.items()):
            if name in values:
                out[i] = hp.encode(values[name])
            else:
                out[i] = INACTIVE
        return out

    def encode_many(self, configs: Sequence[Mapping[str, object]]) -> np.ndarray:
        return np.vstack([self.encode(c) for c in configs]) if configs else np.empty((0, len(self._params)))

    def neighbors(
        self, config: Mapping[str, object], rng: np.random.Generator, n_per_param: int = 2
    ) -> list[Configuration]:
        """One-parameter-changed neighbor configurations."""
        out: list[Configuration] = []
        for name, hp in self._params.items():
            if name not in config:
                continue
            for nb in hp.neighbors(config[name], rng, n=n_per_param):
                cand = dict(config)
                cand[name] = nb
                if self._conditions:  # else every hyperparameter is active
                    cand = {k: v for k, v in cand.items() if self._is_active(k, cand)}
                # Re-activating a child without a value would be invalid; fill
                # any newly active children with samples.
                for missing in self._params:
                    if missing not in cand and self._is_active(missing, cand):
                        cand[missing] = self._params[missing].sample(rng)
                out.append(Configuration(self, cand))
        return out

    def seed(self, seed: int) -> None:
        self._rng = ensure_rng(seed)

    def __len__(self) -> int:
        return len(self._params)

    def __repr__(self) -> str:
        sz = self.size()
        sz_s = "inf" if math.isinf(sz) else f"{int(sz):,}"
        return f"ConfigurationSpace({self.name!r}, {len(self._params)} params, size={sz_s})"


class IndexView:
    """A finite space's configurations as integer rows and codes.

    A row holds one value index per hyperparameter, in space order. Its code
    is the mixed-radix int64 of that row with the first hyperparameter
    varying fastest (AutoTVM's linear order; the strategies in
    :mod:`repro.autotvm` search these codes). Rows, codes and configurations
    are in one-to-one correspondence, so comparing codes compares
    configurations; ``len(view)`` counts them. Obtain one from
    :meth:`ConfigurationSpace.index_view`.
    """

    def __init__(self, space: ConfigurationSpace, hps: "list[_FiniteHyperparameter]") -> None:
        self.space = space
        self._hps = hps
        self._cardinalities = np.array([len(hp._values) for hp in hps], dtype=np.int64)
        self._strides = np.cumprod(np.concatenate(([1], self._cardinalities[:-1])))
        self._size = math.prod(len(hp._values) for hp in hps)
        # Encoding divisor: index / (cardinality - 1), and 0 for a
        # single-value hyperparameter (whose only index is 0).
        self._scale = np.maximum(self._cardinalities - 1, 1)

    def sample(self, n: int) -> np.ndarray:
        """``(n, d)`` int64 index rows from the space RNG.

        Exactly the draws of ``n`` :meth:`ConfigurationSpace.sample_configuration`
        calls, which make one bounded integer draw per hyperparameter, row
        by row. A ``Generator.integers`` call with per-column bounds fills
        its output element by element from the same bit stream, so the
        values and the RNG state after the call are the same (a
        single-value column draws nothing either way).
        """
        return self.space._rng.integers(self._cardinalities, size=(n, len(self._hps)))

    def encode(self, rows: np.ndarray) -> np.ndarray:
        """The rows' encodings, equal to :meth:`Configuration.get_array`."""
        return rows / self._scale

    def __len__(self) -> int:
        return self._size

    def codes(self, rows: np.ndarray) -> np.ndarray:
        """The rows' int64 codes."""
        return rows @ self._strides

    def rows(self, codes: np.ndarray) -> np.ndarray:
        """The index rows of int64 codes (the inverse of :meth:`codes`)."""
        codes = np.asarray(codes, dtype=np.int64)[..., None]
        return codes // self._strides % self._cardinalities

    def row_of(self, config: Mapping[str, object]) -> np.ndarray:
        """The index row of a configuration of this space."""
        return np.array([hp.index_of(config[hp.name]) for hp in self._hps])

    def configuration(self, row: np.ndarray) -> Configuration:
        """The configuration at an index row."""
        values = {hp.name: hp.value_at(int(i)) for hp, i in zip(self._hps, row)}
        return Configuration._from_trusted(self.space, values, self.encode(row))


def space_hash(space: ConfigurationSpace) -> str:
    """Stable digest of a configuration space's *structure*.

    Two spaces hash equal iff they have the same hyperparameter names, types,
    and candidate sets (value lists / ranges / constants) and the same
    conditions. The space's display name and RNG state are deliberately
    excluded, so renaming or reseeding a space does not invalidate stored runs.
    Used by warm starting to refuse prior runs whose search space differs.
    """
    import hashlib

    parts: list[str] = []
    for name in sorted(space.get_hyperparameter_names()):
        hp = space.get_hyperparameter(name)
        desc = [type(hp).__name__, name]
        values = getattr(hp, "_values", None)
        if values is not None:  # Ordinal / Categorical
            desc.append(repr(values))
        elif hasattr(hp, "lower"):  # UniformInteger / UniformFloat
            desc.append(repr((hp.lower, hp.upper, getattr(hp, "log", False))))
        else:  # Constant
            desc.append(repr(getattr(hp, "value", None)))
        parts.append("|".join(desc))
    for child in sorted(space._conditions):
        parts.append(f"cond|{space._conditions[child]!r}")
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]
