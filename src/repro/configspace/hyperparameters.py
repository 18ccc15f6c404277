"""The ordinal hyperparameter: a named, ordered list of candidate values.

The paper declares every search space as ``CSH.OrdinalHyperparameter``s over
tiling-factor lists, and so does every space in this package. A
hyperparameter samples a value, validates one, and encodes it to a float in
[0, 1] by sequence *position* (as in ConfigSpace), which is what makes
tiling-factor spaces behave well under tree surrogates. Local search moves
along those positions on index rows (:meth:`IndexView.neighbors
<repro.configspace.space.IndexView.neighbors>`).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.common.errors import SpaceError


class OrdinalHyperparameter:
    """An ordered finite set of values (the paper's tiling-factor lists)."""

    def __init__(self, name: str, sequence: Sequence[object]) -> None:
        if not name or not isinstance(name, str):
            raise SpaceError(f"hyperparameter name must be a non-empty string, got {name!r}")
        vals = list(sequence)
        if not vals:
            raise SpaceError(f"hyperparameter {name}: empty value list")
        if len(set(map(repr, vals))) != len(vals):
            raise SpaceError(f"hyperparameter {name}: duplicate values")
        self.name = name
        self._values = vals
        self._index = {v: i for i, v in enumerate(vals)}

    def sample(self, rng: np.random.Generator) -> object:
        return self._values[int(rng.integers(len(self._values)))]

    def is_legal(self, value: object) -> bool:
        return value in self._index

    def index_of(self, value: object) -> int:
        try:
            return self._index[value]
        except KeyError:
            raise SpaceError(f"{self.name}: illegal value {value!r}") from None

    def value_at(self, index: int) -> object:
        return self._values[index]

    def encode(self, value: object) -> float:
        """Map a legal value to its position in [0, 1] (0 for one value)."""
        n = len(self._values)
        if n == 1:
            return 0.0
        return self.index_of(value) / (n - 1)

    def size(self) -> float:
        """Number of distinct values."""
        return float(len(self._values))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
