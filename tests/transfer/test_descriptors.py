"""Descriptor determinism: same task, same bytes — anywhere, any time.

The meta-surrogate serializes next to the store and is reused across
processes and merges, so the features it was trained on must be
reconstructible bit-for-bit later. The battery pins byte-identical vectors
in-process, across a fresh interpreter, and across a shard merge.
"""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest

from repro.common.errors import ReproError
from repro.configspace import space_hash
from repro.kernels import TABLE1_SPACE_SIZES, get_benchmark
from repro.transfer import N_PARAM_SLOTS, TaskDescriptor
from repro.transfer.descriptors import ABSENT


class TestFromTask:
    def test_solver_descriptor_shape(self):
        d = TaskDescriptor.from_task("lu", "large")
        assert d.param_names == ("P0", "P1")
        assert d.n_params == 2
        assert d.n_stages == 1
        assert d.flops > 0 and d.bytes_moved > 0
        assert d.space_hash == space_hash(
            get_benchmark("lu", "large").config_space()
        )

    def test_3mm_descriptor_shape(self):
        d = TaskDescriptor.from_task("3mm", "extralarge")
        assert d.n_params == 6
        assert d.n_stages == 3
        # 228M-ish configurations -> log2 around 27.7
        assert 20 < d.log2_space_size < 35

    def test_unknown_kernel_raises(self):
        # "gemm" is a registered bench plugin these days — pick a name that
        # no registry (paper kernels or bench plugins) will ever resolve.
        with pytest.raises(ReproError):
            TaskDescriptor.from_task("fft", "large")

    def test_plugin_kernel_gets_a_descriptor(self):
        d = TaskDescriptor.from_task("gemm", "large")
        assert d.param_names == ("P0", "P1")
        assert d.flops > 0 and d.bytes_moved > 0

    def test_every_registered_benchmark_has_a_descriptor(self):
        for kernel, size in TABLE1_SPACE_SIZES:
            d = TaskDescriptor.from_task(kernel, size)
            assert len(d.vector()) == TaskDescriptor.task_feature_len()


class TestDeterminism:
    def test_vector_is_byte_identical_across_instances(self):
        a = TaskDescriptor.from_task("cholesky", "large")
        b = TaskDescriptor.from_task("cholesky", "large")
        assert a.vector().tobytes() == b.vector().tobytes()
        assert a.digest() == b.digest()

    def test_digest_differs_across_tasks(self):
        digests = {
            TaskDescriptor.from_task(k, s).digest() for k, s in TABLE1_SPACE_SIZES
        }
        assert len(digests) == len(TABLE1_SPACE_SIZES)

    def test_digest_identical_in_a_fresh_process(self):
        """The cross-process half of the determinism contract."""
        code = (
            "import sys; sys.path.insert(0, sys.argv[1])\n"
            "from repro.transfer import TaskDescriptor\n"
            "for k, s in [('lu', 'large'), ('3mm', 'extralarge')]:\n"
            "    d = TaskDescriptor.from_task(k, s)\n"
            "    print(d.digest(), d.vector().tobytes().hex())\n"
        )
        import repro

        src_root = str(next(iter(repro.__path__)) + "/..")
        out = subprocess.run(
            [sys.executable, "-c", code, src_root],
            capture_output=True, text=True, check=True,
        ).stdout.splitlines()
        for line, (k, s) in zip(out, [("lu", "large"), ("3mm", "extralarge")]):
            digest, vec_hex = line.split()
            d = TaskDescriptor.from_task(k, s)
            assert digest == d.digest()
            assert vec_hex == d.vector().tobytes().hex()

    def test_vector_is_read_only(self):
        v = TaskDescriptor.from_task("lu", "large").vector()
        with pytest.raises(ValueError):
            v[0] = 99.0


class TestConfigEncoding:
    def test_fixed_width_and_absent_slots(self):
        d = TaskDescriptor.from_task("lu", "large")
        enc = d.encode_config({"P0": 50, "P1": 50})
        assert len(enc) == TaskDescriptor.config_feature_len()
        # Slots beyond the task's 2 params carry the sentinel.
        assert np.all(enc[2 * 2:] == ABSENT)
        assert np.all(enc[: 2 * 2] >= 0)

    def test_magnitude_and_rank_encodings_are_monotone(self):
        d = TaskDescriptor.from_task("lu", "large")
        cands = d.candidates[0]
        small = d.encode_config({"P0": cands[0], "P1": cands[0]})
        big = d.encode_config({"P0": cands[-1], "P1": cands[-1]})
        assert big[0] > small[0]  # log2 magnitude position
        assert big[1] > small[1]  # rank position
        assert big[1] == 1.0  # top rank normalized to 1

    def test_unknown_parameter_raises(self):
        d = TaskDescriptor.from_task("lu", "large")
        with pytest.raises(ReproError, match="unknown to task"):
            d.encode_config({"P9": 4})

    def test_joined_rows_broadcast(self):
        d = TaskDescriptor.from_task("3mm", "large")
        configs = [
            {"P0": 1, "P1": 1, "P2": 1, "P3": 1, "P4": 1, "P5": 1},
            {"P0": 2, "P1": 2, "P2": 2, "P3": 2, "P4": 2, "P5": 2},
        ]
        rows = d.joined_rows(configs)
        assert rows.shape == (
            2,
            TaskDescriptor.task_feature_len() + TaskDescriptor.config_feature_len(),
        )
        # Task-feature prefix is identical on both rows; config tail differs.
        n = TaskDescriptor.task_feature_len()
        assert np.array_equal(rows[0, :n], rows[1, :n])
        assert not np.array_equal(rows[0, n:], rows[1, n:])

    def test_slot_cap_enforced(self):
        with pytest.raises(ReproError, match="at most"):
            TaskDescriptor(
                kernel="x", size_name="y", space_hash="h",
                param_names=tuple(f"P{i}" for i in range(N_PARAM_SLOTS + 1)),
                candidates=tuple((1, 2) for _ in range(N_PARAM_SLOTS + 1)),
                dims=(8, 8, 8, 8), n_stages=1, flops=1.0, bytes_moved=1.0,
            )
