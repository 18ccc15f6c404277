"""The compiled tree grower: it is really used, and its fallback is silent.

The bit-identity battery itself runs on both growers in ``test_tree.py``.
"""

from __future__ import annotations

import os
import stat
import subprocess
import sys
import threading
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.common.errors import ReproError
from repro.configspace import ConfigurationSpace, OrdinalHyperparameter
from repro.ml import DecisionTreeRegressor, RandomForestRegressor, forest, native, tree
from repro.service import JobSpec, TuningSession
from repro.telemetry import RecordingSink, RunStore
from repro.tir.codegen_c import find_toolchain, native_disabled
from repro.ytopt import Optimizer
from repro.ytopt.surrogate import RandomForestSurrogate
from tests.ml.growers import have_toolchain, use_grower

pytestmark = pytest.mark.skipif(not have_toolchain(), reason="no C toolchain")

ROOT = Path(__file__).resolve().parents[2]


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def _data(seed: int = 0, n: int = 80, d: int = 4):
    rng = np.random.default_rng(seed)
    X = rng.choice([0.0, 0.25, 0.5, 1.0, 2.0], size=(n, d))
    y = rng.standard_normal(n)
    probes = np.vstack([X, rng.random((16, d)) * 2.0, np.full((1, d), np.nan)])
    return X, y, probes


class TestNativeGrowerIsUsed:
    def test_grow_trees_never_reaches_the_numpy_grower(self):
        X, y, probes = _data()
        with mock.patch.object(tree, "_Grower", side_effect=AssertionError("NumPy grower")):
            for max_features in (None, "sqrt"):  # level order and per-node draws
                RandomForestRegressor(max_features=max_features, seed=0).fit(X, y)
            DecisionTreeRegressor(max_depth=3, seed=0).fit(X, y).predict(probes)

    def test_fit_and_pool_never_reach_their_numpy_code(self):
        space = ConfigurationSpace(seed=0)
        for name in ("a", "b", "c", "d"):  # 4 features: 2 drawn per node
            space.add_hyperparameter(OrdinalHyperparameter(name, list(range(8))))
        opt = Optimizer(space, seed=0, n_initial_points=3,
                        surrogate=RandomForestSurrogate(max_features="sqrt", seed=0))
        with mock.patch.object(forest, "grow_trees",
                               side_effect=AssertionError("NumPy draw loop")), \
             mock.patch.object(Optimizer, "_numpy_pool_rows",
                               side_effect=AssertionError("NumPy pool")):
            for _ in range(8):
                config = opt.ask()
                opt.tell(config, 1.0 + config["a"] + config["b"] ** 2)
        assert opt.n_refits == 5

    def test_predict_bits_match_the_numpy_walk(self):
        X, y, probes = _data(seed=1)
        forest = RandomForestRegressor(n_estimators=12, max_features=0.8, seed=1).fit(X, y)
        assert np.isnan(probes[-1]).all()  # NaN rows descend right at every split
        native_out = forest.nodes_.predict(probes)
        with use_grower("numpy"):
            numpy_out = forest.nodes_.predict(probes)
        np.testing.assert_array_equal(_bits(native_out), _bits(numpy_out))

    def test_out_of_range_rows_rejected_before_the_c_call(self):
        X, y, _ = _data()
        for bad in (-1, X.shape[0]):
            rows = np.arange(X.shape[0])[None, :].copy()
            rows[0, 3] = bad
            with pytest.raises(ReproError, match="rows must index"):
                tree.grow_trees(X, y, rows, [np.random.default_rng(0)], 2)

    def test_concurrent_fits_match_serial(self):
        X, y, probes = _data(seed=2, n=120, d=6)
        serial = [
            RandomForestRegressor(seed=s).fit(X, y).predict(probes) for s in range(4)
        ]
        out: dict[int, np.ndarray] = {}

        def fit(seed: int) -> None:
            for _ in range(5):
                out[seed] = RandomForestRegressor(seed=seed).fit(X, y).predict(probes)

        threads = [threading.Thread(target=fit, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for s, want in enumerate(serial):
            np.testing.assert_array_equal(_bits(out[s]), _bits(want))

    def test_not_built_at_import_or_session_construction(self, tmp_path):
        code = (
            "from repro.ml import native\n"
            "from repro.service import JobSpec, TuningSession\n"
            "TuningSession(JobSpec(kernel='lu', size='large', max_evals=4, seed=0))\n"
            "assert not native._by_setting, native._by_setting\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                       env=_cache_env(tmp_path))
        assert _grower_files(tmp_path) == []


#: Prints where the process's grower library was loaded from ("None": no
#: library).
_LOAD = "from repro.ml import native; lib = native.library(); print(lib and lib.path)"


def _cache_env(tmp_path: Path, **env: str) -> dict:
    """The environment of a process that keeps its bytecode, and so the
    grower's cache, under ``tmp_path/pycache`` and compiles per-run
    artifacts into ``tmp_path/run``: nothing is written into the checkout."""
    out = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONPYCACHEPREFIX=str(tmp_path / "pycache"),
               REPRO_NATIVE_DIR=str(tmp_path / "run"))
    out.update(env)
    return out


def _cache_dir(tmp_path: Path) -> Path:
    """The grower's cache directory for :func:`_cache_env`: the prefix
    mirrors the absolute directory of ``native.py``."""
    ml = ROOT / "src" / "repro" / "ml"
    return tmp_path / "pycache" / ml.relative_to(ml.anchor)


def _grower_files(tmp_path: Path) -> list[str]:
    """Everything but bytecode in the cache directory."""
    cache = _cache_dir(tmp_path)
    return sorted(p.name for p in cache.glob("*") if p.suffix != ".pyc")


def _load(tmp_path: Path, **env: str) -> str:
    proc = subprocess.run([sys.executable, "-c", _LOAD], check=True, cwd=ROOT,
                          env=_cache_env(tmp_path, **env), capture_output=True,
                          text=True)
    return proc.stdout.strip()


@pytest.fixture
def logging_cc(tmp_path):
    """A REPRO_CC that appends its arguments to ``cc.log``, then runs the
    real compiler; returns (its path, the log's path)."""
    log = tmp_path / "cc.log"
    cc = tmp_path / "logcc"
    cc.write_text(f'#!/bin/sh\necho "$@" >> "{log}"\nexec "{find_toolchain().path}" "$@"\n')
    cc.chmod(cc.stat().st_mode | stat.S_IXUSR)
    return str(cc), log


class TestLibraryCache:
    """The library is cached beside ``native.py``'s bytecode: a machine
    compiles it once, and later processes only load it."""

    @pytest.mark.parametrize("dont_write_bytecode", ["", "1"],
                             ids=["bytecode", "PYTHONDONTWRITEBYTECODE"])
    def test_second_process_loads_without_compiling(self, tmp_path, logging_cc,
                                                    dont_write_bytecode):
        cc, log = logging_cc
        env = {"REPRO_CC": cc, "PYTHONDONTWRITEBYTECODE": dont_write_bytecode}
        first = _load(tmp_path, **env)
        assert Path(first).parent == _cache_dir(tmp_path)
        assert len(log.read_text().splitlines()) == 2  # --version, then the compile
        log.write_text("")
        assert _load(tmp_path, **env) == first
        assert log.read_text().splitlines() == ["--version"]
        assert not (tmp_path / "run").exists()

    def test_cached_library_needs_a_toolchain(self, tmp_path):
        assert _load(tmp_path) != "None"
        assert _load(tmp_path, REPRO_CC="/nonexistent/cc") == "None"

    @pytest.mark.parametrize("how", ["read-only", "blocked"])
    def test_unwritable_cache_builds_per_run(self, tmp_path, how):
        cache = _cache_dir(tmp_path)
        if how == "read-only":
            cache.mkdir(parents=True)
            cache.chmod(0o555)
            if os.access(cache, os.W_OK):
                pytest.skip("permission bits do not bind this user")
        else:  # a file where a directory of the prefix should be
            (tmp_path / "pycache").write_text("")
        try:
            path = _load(tmp_path)
        finally:
            if how == "read-only":
                cache.chmod(0o755)
        assert Path(path).parent == tmp_path / "run"
        if how == "read-only":
            assert _grower_files(tmp_path) == []

    def test_processes_racing_on_an_empty_cache_both_load(self, tmp_path):
        procs = [
            subprocess.Popen([sys.executable, "-c", _LOAD], cwd=ROOT,
                             env=_cache_env(tmp_path), stdout=subprocess.PIPE,
                             text=True)
            for _ in range(2)
        ]
        paths = [proc.communicate(timeout=120)[0].strip() for proc in procs]
        assert [proc.returncode for proc in procs] == [0, 0]
        assert paths[0] == paths[1]
        assert Path(paths[0]).parent == _cache_dir(tmp_path)
        key = Path(paths[0]).stem
        assert _grower_files(tmp_path) == [f"{key}.c", f"{key}.so"]


def _session_rows(tmp_path: Path, name: str) -> tuple[list, RecordingSink]:
    """A short Swing session (3mm: 6 parameters, so per-node feature draws)
    and the evaluation rows it stored."""
    sink = RecordingSink()
    path = tmp_path / f"{name}.sqlite"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        TuningSession(
            JobSpec(kernel="3mm", size="large", max_evals=16, seed=0),
            store_path=str(path), extra_sinks=[sink],
        ).run()
    with RunStore(path) as store:
        (run,) = store.runs()
        return store.evaluations(run.run_id), sink


class TestSilentFallback:
    """Without the library every fit and predict runs on the NumPy grower:
    the same rows, and nothing that reports the native tier as down."""

    @pytest.fixture
    def native_rows(self, tmp_path):
        assert native.library() is not None
        rows, _ = _session_rows(tmp_path, "native")
        return rows

    @pytest.fixture
    def rejecting_cc(self, tmp_path):
        """A REPRO_CC that runs the real compiler on every source but the
        grower's."""
        real = find_toolchain().path
        fake = tmp_path / "rejectcc"
        fake.write_text(
            "#!/bin/sh\n"
            'for arg in "$@"; do\n'
            '  case "$arg" in *.c)\n'
            '    if grep -q grow_forest "$arg"; then echo rejected >&2; exit 1; fi;;\n'
            "  esac\n"
            "done\n"
            f'exec "{real}" "$@"\n'
        )
        fake.chmod(fake.stat().st_mode | stat.S_IXUSR)
        return str(fake)

    def _assert_silent_fallback(self, tmp_path, monkeypatch, cc, native_rows):
        # A fresh outcome table, so this setting is resolved, not recalled.
        with mock.patch.object(native, "_by_setting", {}):
            monkeypatch.setenv("REPRO_CC", cc)
            rows, sink = _session_rows(tmp_path, "fallback")
            assert native.library() is None
            monkeypatch.undo()
            assert native.library() is not None
        assert rows == native_rows
        assert "native_disabled" not in sink.kinds()
        assert native_disabled() is None

    def test_missing_compiler(self, tmp_path, monkeypatch, native_rows):
        self._assert_silent_fallback(tmp_path, monkeypatch, "/nonexistent/cc",
                                     native_rows)

    def test_compiler_rejecting_the_grower(self, tmp_path, monkeypatch,
                                           native_rows, rejecting_cc):
        with monkeypatch.context() as env:
            env.setenv("REPRO_CC", rejecting_cc)
            assert find_toolchain().path == rejecting_cc  # a working toolchain
        self._assert_silent_fallback(tmp_path, monkeypatch, rejecting_cc,
                                     native_rows)
