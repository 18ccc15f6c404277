"""The corpus meta-surrogate: runtime prediction across tasks.

:class:`MetaSurrogate` wraps the same Random-Forest machinery the in-session
optimizer uses (:class:`repro.ytopt.surrogate.RandomForestSurrogate`), but
trains it on (task-features ⊕ config-features) rows joined from a whole run
store instead of one session's history. The fitted model answers "how fast
would config *c* run on task *t*?" for (task, config) pairs it never saw —
including whole tasks it never saw, which is the transfer case.

Serialization is content-addressed: :meth:`save` writes
``meta-<fingerprint>.pkl`` next to the store, where the fingerprint hashes
the exact corpus (run ids, record counts, descriptor version) plus the
exclusion, the seed, and the fitted-tree layout
(:data:`repro.ml.TREE_FORMAT_VERSION`). :meth:`fit_or_load` therefore reuses
a cached model only when the corpus is byte-for-byte the same evidence and
the pickled trees are readable by this code, and silently refits otherwise —
no staleness knob to misconfigure.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.common.errors import ReproError
from repro.ml import TREE_FORMAT_VERSION
from repro.transfer.corpus import TransferCorpus
from repro.transfer.descriptors import DESCRIPTOR_VERSION, TaskDescriptor
from repro.ytopt.surrogate import RandomForestSurrogate

#: Forest size for the meta-surrogate. Larger than the in-session default
#: (30): the corpus is bigger and is fit once per campaign, not per batch.
META_N_ESTIMATORS = 60


@dataclass
class MetaSurrogateInfo:
    """Provenance riding alongside a fitted (or serialized) meta-surrogate."""

    fingerprint: str
    descriptor_version: int
    n_records: int
    n_tasks: int
    tasks: tuple[tuple[str, str], ...]
    excluded: "tuple[str, str] | None"
    source: str


class MetaSurrogate:
    """A Random Forest over task ⊕ config features, fit on a corpus."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.info: MetaSurrogateInfo | None = None
        self._model: RandomForestSurrogate | None = None

    # -- fitting -------------------------------------------------------------

    def fit(
        self,
        corpus: TransferCorpus,
        excluded: "tuple[str, str] | None" = None,
    ) -> "MetaSurrogate":
        """Fit on every row of ``corpus``.

        ``excluded`` is *recorded provenance*, not a filter — pass the
        (kernel, size) the corpus was built with ``exclude=`` so the honesty
        contract is checkable after the fact (:meth:`assert_excludes`).
        """
        if excluded is not None and tuple(excluded) in corpus.tasks:
            raise ReproError(
                f"corpus claims to exclude {excluded} but contains "
                f"{corpus.tasks[tuple(excluded)].n_records} records for it; "
                f"rebuild with TransferCorpus.from_store(..., exclude=...)"
            )
        X, y = corpus.matrix()
        if len(corpus.tasks) < 2:
            raise ReproError(
                f"meta-surrogate needs evidence from >= 2 tasks to transfer "
                f"(corpus at {corpus.source or '<memory>'} has "
                f"{len(corpus.tasks)}); tune more kernels or sizes first"
            )
        model = RandomForestSurrogate(
            n_estimators=META_N_ESTIMATORS,
            max_features=0.8,
            log_cost=True,
            seed=self.seed,
        )
        model.fit(X, y)
        self._model = model
        self.info = MetaSurrogateInfo(
            fingerprint=self._fit_fingerprint(corpus, excluded),
            descriptor_version=DESCRIPTOR_VERSION,
            n_records=len(corpus),
            n_tasks=corpus.n_tasks,
            tasks=tuple(sorted(corpus.tasks)),
            excluded=tuple(excluded) if excluded is not None else None,
            source=corpus.source,
        )
        return self

    def _fit_fingerprint(
        self, corpus: TransferCorpus, excluded: "tuple[str, str] | None"
    ) -> str:
        h = hashlib.sha256()
        h.update(corpus.fingerprint().encode())
        h.update(
            f"|exclude={excluded}|seed={self.seed}"
            f"|trees={TREE_FORMAT_VERSION}".encode()
        )
        return h.hexdigest()[:16]

    # -- prediction ----------------------------------------------------------

    def predict(
        self, descriptor: TaskDescriptor, configs: "list[dict[str, int]]"
    ) -> tuple[np.ndarray, np.ndarray]:
        """(mean, std) of *log* runtime for each config on ``descriptor``.

        Log-space outputs are intentional: the seeder ranks by LCB, and
        ranks are invariant to the monotone exp — skipping it keeps the
        acquisition arithmetic identical to the in-session surrogate's.
        """
        if self._model is None:
            raise ReproError("meta-surrogate predict() before fit()/load()")
        if not configs:
            return np.empty(0), np.empty(0)
        return self._model.predict(descriptor.joined_rows(configs))

    def assert_excludes(self, kernel: str, size_name: str) -> None:
        """Raise unless this model provably never trained on (kernel, size)."""
        if self.info is None:
            raise ReproError("meta-surrogate has no provenance (not fitted)")
        if (kernel, size_name) in self.info.tasks:
            raise ReproError(
                f"meta-surrogate trained on {kernel}/{size_name} "
                f"(tasks: {self.info.tasks}); refusing to seed the task it "
                f"memorized — fit with exclude=({kernel!r}, {size_name!r})"
            )

    # -- serialization -------------------------------------------------------

    def save(self, directory: "str | Path") -> Path:
        """Pickle to ``<directory>/meta-<fingerprint>.pkl``; returns the path."""
        if self._model is None or self.info is None:
            raise ReproError("cannot save an unfitted meta-surrogate")
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"meta-{self.info.fingerprint}.pkl"
        payload = {
            "descriptor_version": DESCRIPTOR_VERSION,
            "tree_format": TREE_FORMAT_VERSION,
            "seed": self.seed,
            "info": self.info,
            "model": self._model,
        }
        with open(path, "wb") as fh:
            pickle.dump(payload, fh)
        return path

    @classmethod
    def load(cls, path: "str | Path") -> "MetaSurrogate":
        path = Path(path)
        if not path.exists():
            raise ReproError(f"meta-surrogate not found: {path}")
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
        except (AttributeError, ImportError, pickle.UnpicklingError) as exc:
            # An older tree layout pickles classes this code no longer has.
            raise ReproError(
                f"meta-surrogate at {path} cannot be unpickled ({exc}) — refit"
            ) from exc
        if payload.get("descriptor_version") != DESCRIPTOR_VERSION:
            raise ReproError(
                f"meta-surrogate at {path} was fit with descriptor version "
                f"{payload.get('descriptor_version')}; current is "
                f"{DESCRIPTOR_VERSION} — refit (features are misaligned)"
            )
        if payload.get("tree_format") != TREE_FORMAT_VERSION:
            raise ReproError(
                f"meta-surrogate at {path} holds tree format "
                f"{payload.get('tree_format')}; current is "
                f"{TREE_FORMAT_VERSION} — refit"
            )
        ms = cls(seed=payload["seed"])
        ms.info = payload["info"]
        ms._model = payload["model"]
        return ms

    @classmethod
    def fit_or_load(
        cls,
        store_path: "str | Path",
        exclude: "tuple[str, str] | None" = None,
        tuner: str | None = None,
        seed: int = 0,
        cache_dir: "str | Path | None" = None,
    ) -> "tuple[MetaSurrogate, TransferCorpus]":
        """Build the corpus, then reuse a cached model or fit a fresh one.

        ``exclude`` names the target (kernel, size) the model is about to
        seed — it is dropped from the corpus *before* fitting, which is the
        subsystem's leave-task-out honesty contract. The cache directory
        defaults to next to the store (the store's parent for a file, the
        shard root itself for a directory).
        """
        store_path = Path(store_path)
        corpus = TransferCorpus.from_store(store_path, tuner=tuner, exclude=exclude)
        if cache_dir is None:
            cache_dir = store_path if store_path.is_dir() else store_path.parent
        cache_dir = Path(cache_dir)
        probe = cls(seed=seed)
        fp = probe._fit_fingerprint(corpus, tuple(exclude) if exclude else None)
        cached = cache_dir / f"meta-{fp}.pkl"
        if cached.exists():
            try:
                return cls.load(cached), corpus
            except ReproError:
                pass  # stale or unreadable cache entry: refit and overwrite it
        ms = probe.fit(corpus, excluded=exclude)
        ms.save(cache_dir)
        return ms, corpus

    def summary(self) -> dict:
        """JSON-safe provenance for ``repro transfer inspect``."""
        if self.info is None:
            return {"fitted": False}
        return {
            "fitted": True,
            "fingerprint": self.info.fingerprint,
            "descriptor_version": self.info.descriptor_version,
            "n_records": self.info.n_records,
            "n_tasks": self.info.n_tasks,
            "tasks": [f"{k}/{s}" for k, s in self.info.tasks],
            "excluded": (
                f"{self.info.excluded[0]}/{self.info.excluded[1]}"
                if self.info.excluded
                else None
            ),
            "source": self.info.source,
        }
