"""VFS mount-table routing tests."""

import pytest

from repro import make_filesystem
from repro.kernel.vfs import VFS
from repro.posix import flags as F
from repro.posix.errors import (
    BadFileDescriptorError,
    FileNotFoundFSError,
    InvalidArgumentFSError,
)

PM = 96 * 1024 * 1024


@pytest.fixture
def vfs():
    _, root = make_filesystem("ext4dax", pm_size=PM)
    _, pm_fs = make_filesystem("splitfs-posix", pm_size=PM)
    v = VFS(root)
    root.mkdir("/mnt")
    v.mount("/mnt/pmem", pm_fs)
    return v


class TestRouting:
    def test_root_paths_go_to_root_fs(self, vfs):
        vfs.write_file("/rootfile", b"r")
        assert vfs.read_file("/rootfile") == b"r"

    def test_mounted_paths_route_to_mounted_fs(self, vfs):
        vfs.write_file("/mnt/pmem/data", b"on pm")
        fs, inner = vfs.resolve("/mnt/pmem/data")
        assert inner == "/data"
        assert fs.read_file("/data") == b"on pm"

    def test_longest_prefix_wins(self, vfs):
        _, deeper = make_filesystem("nova-strict", pm_size=PM)
        vfs.mount("/mnt/pmem/nested", deeper)
        vfs.write_file("/mnt/pmem/nested/x", b"deep")
        assert deeper.read_file("/x") == b"deep"

    def test_fd_operations_route_back(self, vfs):
        fd = vfs.open("/mnt/pmem/f", F.O_CREAT | F.O_RDWR)
        vfs.write(fd, b"0123456789")
        assert vfs.pread(fd, 4, 2) == b"2345"
        vfs.lseek(fd, 0)
        assert vfs.read(fd, 3) == b"012"
        vfs.fsync(fd)
        vfs.ftruncate(fd, 5)
        assert vfs.fstat(fd).st_size == 5
        vfs.close(fd)
        with pytest.raises(BadFileDescriptorError):
            vfs.read(fd, 1)

    def test_cross_mount_rename_rejected(self, vfs):
        vfs.write_file("/a", b"1")
        with pytest.raises(InvalidArgumentFSError):
            vfs.rename("/a", "/mnt/pmem/a")

    def test_same_mount_rename_ok(self, vfs):
        vfs.write_file("/mnt/pmem/old", b"1")
        vfs.rename("/mnt/pmem/old", "/mnt/pmem/new")
        assert vfs.exists("/mnt/pmem/new")

    def test_listdir_shows_mountpoints(self, vfs):
        assert "pmem" in vfs.listdir("/mnt")

    def test_unmount(self, vfs):
        vfs.unmount("/mnt/pmem")
        assert "/mnt/pmem" not in vfs.mounts()
        with pytest.raises(FileNotFoundFSError):
            vfs.unmount("/mnt/pmem")

    def test_cannot_unmount_root(self, vfs):
        with pytest.raises(InvalidArgumentFSError):
            vfs.unmount("/")

    def test_bad_mountpoint(self, vfs):
        _, other = make_filesystem("pmfs", pm_size=PM)
        with pytest.raises(InvalidArgumentFSError):
            vfs.mount("relative", other)

    def test_relative_path_rejected(self, vfs):
        for path in ("not/absolute", ""):
            with pytest.raises(InvalidArgumentFSError):
                vfs.resolve(path)

    def test_stat_and_namespace_ops(self, vfs):
        vfs.mkdir("/mnt/pmem/d")
        vfs.write_file("/mnt/pmem/d/f", b"xyz")
        assert vfs.stat("/mnt/pmem/d/f").st_size == 3
        vfs.unlink("/mnt/pmem/d/f")
        vfs.rmdir("/mnt/pmem/d")
        assert not vfs.exists("/mnt/pmem/d")


class TestResolveEdges:
    """Longest-prefix resolution over sentinel file systems."""

    def test_prefix_match_is_by_path_component(self):
        root, a = object(), object()
        v = VFS(root)
        v.mount("/a", a)
        assert v.resolve("/a") == (a, "/")
        assert v.resolve("/a/x") == (a, "/x")
        for path in ("/ab", "/ab/c", "/abc"):
            assert v.resolve(path) == (root, path)

    def test_trailing_slash_mountpoint(self):
        root, ab = object(), object()
        v = VFS(root)
        v.mount("/a/b/", ab)
        assert v.mounts() == ["/", "/a/b"]
        assert v.resolve("/a/b") == (ab, "/")
        assert v.resolve("/a/b/c/d") == (ab, "/c/d")
        assert v.resolve("/a/bc") == (root, "/a/bc")

    def test_unmounting_a_nested_mount_routes_back_to_its_parent(self):
        root, a, ab = object(), object(), object()
        v = VFS(root)
        v.mount("/a", a)
        v.mount("/a/b", ab)
        assert v.resolve("/a/b/c") == (ab, "/c")
        v.unmount("/a/b/")
        assert v.resolve("/a/b/c") == (a, "/b/c")
        v.unmount("/a")
        assert v.resolve("/a/b/c") == (root, "/a/b/c")
