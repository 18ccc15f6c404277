"""ConfigurationSpace, Configuration and IndexView.

The space owns an ordered set of ordinal hyperparameters and a seeded RNG.
It samples configurations, validates them, reports the space size (the
paper's Table 1 numbers come straight from ``space.size()``) and encodes
configurations to float vectors for surrogate models. Its :class:`IndexView`
numbers the configurations as integer rows and codes; the tuners search,
de-duplicate and take local-search neighbours there.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Collection, Iterator, Mapping, Sequence

import numpy as np

from repro.common.errors import SpaceError
from repro.common.rng import ensure_rng
from repro.configspace.hyperparameters import OrdinalHyperparameter


class Configuration(Mapping):
    """An immutable assignment of values to hyperparameters."""

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
        (index rows, enumeration), where re-checking would only re-derive what
        the space already guaranteed."""
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
    """An ordered collection of ordinal hyperparameters."""

    def __init__(self, name: str = "space", seed: int | None = None) -> None:
        self.name = name
        self._rng = ensure_rng(seed)
        self._params: dict[str, OrdinalHyperparameter] = {}

    # -- construction ------------------------------------------------------

    def add_hyperparameter(self, hp: OrdinalHyperparameter) -> OrdinalHyperparameter:
        """Add ``hp``. A space holds fewer than 2**63 configurations, so that
        every one has an int64 :class:`IndexView` code."""
        if hp.name in self._params:
            raise SpaceError(f"hyperparameter {hp.name} already in space")
        count = math.prod(len(h._values) for h in self._params.values()) * len(hp._values)
        if count >= 2**63:
            raise SpaceError(
                f"adding {hp.name} gives {count} configurations; a space holds "
                f"fewer than 2**63"
            )
        self._params[hp.name] = hp
        return hp

    def add_hyperparameters(
        self, hps: Sequence[OrdinalHyperparameter]
    ) -> list[OrdinalHyperparameter]:
        return [self.add_hyperparameter(hp) for hp in hps]

    # -- introspection -----------------------------------------------------

    def get_hyperparameters(self) -> list[OrdinalHyperparameter]:
        return list(self._params.values())

    def get_hyperparameter(self, name: str) -> OrdinalHyperparameter:
        try:
            return self._params[name]
        except KeyError:
            raise SpaceError(f"no hyperparameter named {name!r}") from None

    def get_hyperparameter_names(self) -> list[str]:
        return list(self._params)

    def size(self) -> float:
        """Number of distinct configurations (the product of candidate-list
        lengths, like the paper's Table 1)."""
        total = 1.0
        for hp in self._params.values():
            total *= hp.size()
        return total

    # -- validation ----------------------------------------------------------

    def check_configuration(self, values: Mapping[str, object]) -> None:
        """Raise :class:`SpaceError` unless ``values`` is complete and legal."""
        for name, value in values.items():
            hp = self._params.get(name)
            if hp is None:
                raise SpaceError(f"unknown hyperparameter {name!r}")
            if not hp.is_legal(value):
                raise SpaceError(f"{name}: illegal value {value!r}")
        for name in self._params:
            if name not in values:
                raise SpaceError(f"hyperparameter {name} missing a value")

    # -- sampling ------------------------------------------------------------

    def sample_configuration(self, size: int | None = None):
        """Sample one Configuration (or a list when ``size`` is given)."""
        if size is None:
            return self._sample_one()
        if size < 1:
            raise SpaceError(f"sample size must be >= 1, got {size}")
        return [self._sample_one() for _ in range(size)]

    def _sample_one(self) -> Configuration:
        values = {name: hp.sample(self._rng) for name, hp in self._params.items()}
        return Configuration(self, values)

    def index_view(self) -> IndexView:
        """The space as value-index rows and codes (see :class:`IndexView`).

        Raises :class:`SpaceError` for a space without hyperparameters,
        which has nothing to number.
        """
        if not self._params:
            raise SpaceError(f"space {self.name!r} has no hyperparameters")
        return IndexView(self, list(self._params.values()))

    def enumerate_configurations(self) -> list[Configuration]:
        """Every configuration, first hyperparameter varying slowest.

        Intended for small spaces — callers should check :meth:`size` first.
        """
        names = list(self._params)
        return [
            Configuration._from_trusted(self, dict(zip(names, values)))
            for values in itertools.product(*(hp._values for hp in self._params.values()))
        ]

    # -- encoding ------------------------------------------------------------

    def encode(self, values: Mapping[str, object]) -> np.ndarray:
        """Encode to a float vector, one slot per hyperparameter in order."""
        return np.array([hp.encode(values[name]) for name, hp in self._params.items()])

    def seed(self, seed: int) -> None:
        self._rng = ensure_rng(seed)

    def __len__(self) -> int:
        return len(self._params)

    def __repr__(self) -> str:
        return (
            f"ConfigurationSpace({self.name!r}, {len(self._params)} params, "
            f"size={int(self.size()):,})"
        )


class IndexView:
    """A space's configurations as integer rows and codes.

    A row holds one value index per hyperparameter, in space order. Its code
    is the mixed-radix int64 of that row with the first hyperparameter
    varying fastest (AutoTVM's linear order; the strategies in
    :mod:`repro.autotvm` search these codes). Rows, codes and configurations
    are in one-to-one correspondence, so comparing codes compares
    configurations; ``len(view)`` counts them. ``cardinalities`` and
    ``strides`` are the per-hyperparameter value counts and code weights
    (int64 arrays; treat as read-only). Obtain one from
    :meth:`ConfigurationSpace.index_view`.
    """

    def __init__(self, space: ConfigurationSpace, hps: "list[OrdinalHyperparameter]") -> None:
        self.space = space
        self._hps = hps
        self.cardinalities = np.array([len(hp._values) for hp in hps], dtype=np.int64)
        self.strides = np.cumprod(np.concatenate(([1], self.cardinalities[:-1])))
        self._size = math.prod(len(hp._values) for hp in hps)
        # Encoding divisor: index / (cardinality - 1), and 0 for a
        # single-value hyperparameter (whose only index is 0).
        self._scale = np.maximum(self.cardinalities - 1, 1)

    def sample(self, n: int) -> np.ndarray:
        """``(n, d)`` int64 index rows from the space RNG.

        Exactly the draws of ``n`` :meth:`ConfigurationSpace.sample_configuration`
        calls, which make one bounded integer draw per hyperparameter, row
        by row. A ``Generator.integers`` call with per-column bounds fills
        its output element by element from the same bit stream, so the
        values and the RNG state after the call are the same (a
        single-value column draws nothing either way).
        """
        return self.space._rng.integers(self.cardinalities, size=(n, len(self._hps)))

    def encode(self, rows: np.ndarray) -> np.ndarray:
        """The rows' encodings, equal to :meth:`Configuration.get_array`."""
        return rows / self._scale

    def __len__(self) -> int:
        return self._size

    def codes(self, rows: np.ndarray) -> np.ndarray:
        """The rows' int64 codes."""
        return rows @ self.strides

    def rows(self, codes: np.ndarray) -> np.ndarray:
        """The index rows of int64 codes (the inverse of :meth:`codes`)."""
        codes = np.asarray(codes, dtype=np.int64)[..., None]
        return codes // self.strides % self.cardinalities

    def row_of(self, config: Mapping[str, object]) -> np.ndarray:
        """The index row of a configuration of this space."""
        return np.array([hp.index_of(config[hp.name]) for hp in self._hps])

    def code_of(self, config: Mapping[str, object]) -> int:
        """The code of a configuration of this space."""
        return int(self.codes(self.row_of(config)))

    def configuration(self, row: np.ndarray) -> Configuration:
        """The configuration at an index row."""
        values = {hp.name: hp.value_at(int(i)) for hp, i in zip(self._hps, row)}
        return Configuration._from_trusted(self.space, values, self.encode(row))

    #: Position offsets tried per hyperparameter, nearest first.
    _STEPS = np.array([-1, 1, -2, 2])

    def neighbors(self, row: np.ndarray) -> np.ndarray:
        """The local-search neighbours of an index row, as rows.

        Each changes one hyperparameter, in space order, to one of the first
        two in-range positions of ``index - 1``, ``index + 1``, ``index - 2``,
        ``index + 2``: the next smaller and larger values, or the two
        nearest on one side at either end of the list.
        """
        positions = row[:, None] + self._STEPS
        legal = (positions >= 0) & (positions < self.cardinalities[:, None])
        column, step = np.nonzero(legal & (np.cumsum(legal, axis=1) <= 2))
        out = np.repeat(row[None], len(column), axis=0)
        out[np.arange(len(column)), column] = positions[column, step]
        return out

    def unseen(self, taken: Collection[int]) -> np.ndarray:
        """The rows whose codes are not in ``taken``, in
        :meth:`ConfigurationSpace.enumerate_configurations` order (first
        hyperparameter slowest)."""
        rows = np.indices(self.cardinalities).reshape(len(self._hps), -1).T
        return rows[~np.isin(self.codes(rows), np.fromiter(taken, np.int64))]


def space_hash(space: ConfigurationSpace) -> str:
    """Stable digest of a configuration space's *structure*.

    Two spaces hash equal iff they have the same hyperparameter names and
    value lists. The space's display name, its RNG state and the order the
    hyperparameters were declared in are deliberately excluded, so renaming
    or reseeding a space does not invalidate stored runs. Used by warm
    starting and transfer learning to refuse prior runs whose search space
    differs.
    """
    import hashlib

    parts = [
        f"{type(hp).__name__}|{name}|{hp._values!r}"
        for name, hp in sorted(space._params.items())
    ]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]
