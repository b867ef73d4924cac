"""Unit tests for the measurement harness itself."""

import pytest

from repro.bench.harness import (
    DEFAULT_PM,
    io_pattern_workload,
    measure,
    syscall_latency_workload,
)
from repro.core.splitfs import SplitFSConfig
from repro.factory import make_filesystem
from repro.posix import flags as F


class TestMeasure:
    def test_setup_is_not_charged(self):
        def setup(fs):
            fs.write_file("/pre", b"x" * 100_000)  # expensive, unmeasured
            return None

        def body(fs, ctx):
            return 1

        m = measure("ext4dax", "wl", setup, body)
        assert m.total_ns < 10_000  # only the trivial body

    def test_io_counters_are_deltas(self):
        def setup(fs):
            fs.write_file("/pre", b"y" * 50_000)
            return None

        def body(fs, ctx):
            fs.write_file("/measured", b"z" * 10_000)
            return 1

        m = measure("ext4dax", "wl", setup, body)
        assert 10_000 <= m.io.data_bytes_written < 50_000

    def test_operations_count_from_body(self):
        m = measure("ext4dax", "wl", lambda fs: None, lambda fs, ctx: 42)
        assert m.operations == 42


class TestIOPatternWorkload:
    @pytest.mark.parametrize("pattern", ["seq-read", "rand-read", "seq-write",
                                         "rand-write", "append"])
    def test_patterns_run_and_count(self, pattern):
        m = io_pattern_workload("ext4dax", pattern, file_bytes=1 << 20)
        assert m.operations == (1 << 20) // 4096
        assert m.total_ns > 0

    def test_append_builds_the_file(self):
        # The append workload must end with the full file in place.
        machine, fs = make_filesystem("splitfs-posix", pm_size=DEFAULT_PM)
        # replicate the workload manually through the public helper is
        # opaque; instead verify via measurement: data written >= file size.
        m = io_pattern_workload("splitfs-posix", "append", file_bytes=1 << 20,
                                fsync_every=16)
        assert m.io.data_bytes_written >= (1 << 20)

    def test_reads_do_not_write_data(self):
        m = io_pattern_workload("ext4dax", "seq-read", file_bytes=1 << 20)
        assert m.io.data_bytes_written == 0
        assert m.io.bytes_read >= (1 << 20)

    def test_splitfs_config_is_honored(self):
        cfg = SplitFSConfig(use_staging=False)
        m = io_pattern_workload("splitfs-posix", "append", file_bytes=1 << 20,
                                splitfs_config=cfg)
        # Without staging, appends trap into the kernel: far slower.
        m2 = io_pattern_workload("splitfs-posix", "append", file_bytes=1 << 20)
        assert m.ns_per_op > m2.ns_per_op * 2


class TestSyscallWorkload:
    def test_reports_all_call_types(self):
        lat = syscall_latency_workload("ext4dax", iterations=5)
        assert set(lat) == {"open", "close", "append", "fsync", "read",
                            "unlink"}
        assert all(v > 0 for v in lat.values())
