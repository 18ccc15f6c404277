"""Meta-surrogate: fit refusals, provenance, and content-addressed caching."""

from __future__ import annotations

import pickle

import pytest

from repro.common.errors import ReproError
from repro.ml import TREE_FORMAT_VERSION
from repro.transfer import MetaSurrogate, TaskDescriptor, TransferCorpus
from repro.transfer.meta import MetaSurrogateInfo

from tests.transfer.test_corpus import _archive

CORPUS_TASKS = [
    ("lu", "large", 0, 8),
    ("cholesky", "large", 0, 8),
    ("cholesky", "extralarge", 0, 8),
]


@pytest.fixture(scope="module")
def corpus_db(tmp_path_factory):
    db = tmp_path_factory.mktemp("meta") / "runs.sqlite"
    _archive(db, CORPUS_TASKS)
    return db


class TestFit:
    def test_fit_and_predict(self, corpus_db):
        corpus = TransferCorpus.from_store(corpus_db)
        ms = MetaSurrogate(seed=0).fit(corpus)
        desc = TaskDescriptor.from_task("lu", "large")
        configs = [{"P0": 8, "P1": 8}, {"P0": 100, "P1": 20}]
        mean, std = ms.predict(desc, configs)
        assert mean.shape == std.shape == (2,)
        assert (std >= 0).all()

    def test_predict_before_fit_raises(self):
        with pytest.raises(ReproError, match="before fit"):
            MetaSurrogate().predict(
                TaskDescriptor.from_task("lu", "large"), [{"P0": 8, "P1": 8}]
            )

    def test_single_task_corpus_refused(self, tmp_path):
        db = tmp_path / "runs.sqlite"
        _archive(db, [("lu", "large", 0, 8)])
        with pytest.raises(ReproError, match=">= 2 tasks"):
            MetaSurrogate().fit(TransferCorpus.from_store(db))

    def test_claimed_exclusion_must_hold(self, corpus_db):
        corpus = TransferCorpus.from_store(corpus_db)  # lu/large included
        with pytest.raises(ReproError, match="claims to exclude"):
            MetaSurrogate().fit(corpus, excluded=("lu", "large"))

    def test_assert_excludes(self, corpus_db):
        corpus = TransferCorpus.from_store(corpus_db)
        ms = MetaSurrogate().fit(corpus)
        with pytest.raises(ReproError, match="refusing to seed"):
            ms.assert_excludes("lu", "large")
        ms.assert_excludes("3mm", "large")  # never trained on -> fine


def _write_old_tree_format(path):
    """Rewrite a saved payload as if an older tree layout had pickled it."""
    payload = pickle.loads(path.read_bytes())
    payload["tree_format"] = TREE_FORMAT_VERSION - 1
    path.write_bytes(pickle.dumps(payload))


class TestSerialization:
    def test_save_load_roundtrip(self, corpus_db, tmp_path):
        corpus = TransferCorpus.from_store(corpus_db)
        ms = MetaSurrogate(seed=3).fit(corpus)
        path = ms.save(tmp_path)
        assert path.name == f"meta-{ms.info.fingerprint}.pkl"
        loaded = MetaSurrogate.load(path)
        assert loaded.info == ms.info
        desc = TaskDescriptor.from_task("3mm", "large")
        configs = [{f"P{i}": 2 for i in range(6)}]
        assert loaded.predict(desc, configs)[0] == ms.predict(desc, configs)[0]

    def test_load_refuses_descriptor_version_mismatch(self, tmp_path):
        stale = tmp_path / "meta-deadbeef.pkl"
        stale.write_bytes(pickle.dumps({"descriptor_version": 0}))
        with pytest.raises(ReproError, match="descriptor version"):
            MetaSurrogate.load(stale)

    def test_load_refuses_tree_format_mismatch(self, corpus_db, tmp_path):
        path = MetaSurrogate(seed=0).fit(TransferCorpus.from_store(corpus_db)).save(
            tmp_path
        )
        _write_old_tree_format(path)
        with pytest.raises(ReproError, match="tree format"):
            MetaSurrogate.load(path)

    def test_load_refuses_unpicklable_payload(self, tmp_path):
        stale = tmp_path / "meta-deadbeef.pkl"
        # A pickle naming a class this code does not have (an old node type).
        stale.write_bytes(b"\x80\x04\x8c\x0drepro.ml.tree\x8c\x05_Node\x93.")
        with pytest.raises(ReproError, match="cannot be unpickled"):
            MetaSurrogate.load(stale)

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(ReproError, match="not found"):
            MetaSurrogate.load(tmp_path / "meta-none.pkl")

    def test_fingerprint_depends_on_seed_and_exclusion(self, corpus_db):
        corpus = TransferCorpus.from_store(corpus_db)
        base = MetaSurrogate(seed=0)._fit_fingerprint(corpus, None)
        assert MetaSurrogate(seed=1)._fit_fingerprint(corpus, None) != base
        assert (
            MetaSurrogate(seed=0)._fit_fingerprint(corpus, ("lu", "large")) != base
        )


class TestFitOrLoad:
    def test_fits_then_reuses_cache(self, corpus_db, monkeypatch):
        ms1, corpus1 = MetaSurrogate.fit_or_load(corpus_db, seed=0)
        cached = corpus_db.parent / f"meta-{ms1.info.fingerprint}.pkl"
        assert cached.exists()

        # Second call must hit the cache: a fit would now blow up.
        def boom(self, corpus, excluded=None):
            raise AssertionError("refit despite unchanged corpus")

        monkeypatch.setattr(MetaSurrogate, "fit", boom)
        ms2, _ = MetaSurrogate.fit_or_load(corpus_db, seed=0)
        assert ms2.info == ms1.info

    def test_old_tree_format_cache_is_refit(self, corpus_db, monkeypatch):
        ms1, _ = MetaSurrogate.fit_or_load(corpus_db, seed=0)
        cached = corpus_db.parent / f"meta-{ms1.info.fingerprint}.pkl"
        _write_old_tree_format(cached)
        fits = []
        real_fit = MetaSurrogate.fit

        def counting_fit(self, corpus, excluded=None):
            fits.append(corpus)
            return real_fit(self, corpus, excluded)

        monkeypatch.setattr(MetaSurrogate, "fit", counting_fit)
        ms2, _ = MetaSurrogate.fit_or_load(corpus_db, seed=0)
        assert len(fits) == 1
        assert ms2.info == ms1.info
        # The refit overwrote the stale entry with a loadable one.
        assert MetaSurrogate.load(cached).info == ms1.info

    def test_exclude_drops_task_before_fit(self, corpus_db):
        ms, corpus = MetaSurrogate.fit_or_load(corpus_db, exclude=("lu", "large"))
        assert ("lu", "large") not in corpus.tasks
        assert ms.info.excluded == ("lu", "large")
        ms.assert_excludes("lu", "large")  # the honesty contract holds

    def test_info_is_provenance_complete(self, corpus_db):
        ms, corpus = MetaSurrogate.fit_or_load(corpus_db)
        assert isinstance(ms.info, MetaSurrogateInfo)
        assert ms.info.n_records == len(corpus)
        assert ms.info.tasks == tuple(sorted(corpus.tasks))
        assert ms.summary()["fitted"] is True
