"""Trace record/replay: :class:`repro.difftest.Recorder` records a run's
calls as ``FuzzOp``s, and ``apply_op`` over fresh slots replays them."""

import pytest

from repro import make_filesystem
from repro.difftest import FuzzOp, Recorder, apply_op, generate_ops, snapshot
from repro.posix import flags as F
from repro.posix.errors import BadFileDescriptorError, FileNotFoundFSError

PM = 96 * 1024 * 1024


def replay(fs, ops):
    """Apply ``ops`` to ``fs`` over a fresh slots dict; the outcomes."""
    slots = {}
    return [apply_op(fs, slots, op) for op in ops]


class TestRecordReplay:
    def workload(self, fs):
        fs.mkdir("/w")
        fd = fs.open("/w/a", F.O_CREAT | F.O_RDWR)
        fs.write(fd, b"\x01" * 5000)
        fs.pwrite(fd, b"patch", 100)
        fs.fsync(fd)
        fs.lseek(fd, 0, F.SEEK_SET)
        fs.read(fd, 64)
        fs.ftruncate(fd, 3000)
        fs.close(fd)
        fs.rename("/w/a", "/w/b")
        fs.write_file("/w/c", b"deleteme")
        fs.unlink("/w/c")
        fs.listdir("/w")
        fs.stat("/w/b")

    def final_state(self, fs):
        return {p: fs.read_file(f"/w/{p}") for p in fs.listdir("/w")}

    def test_replay_reproduces_state_across_systems(self):
        _, src = make_filesystem("ext4dax", pm_size=PM)
        rec = Recorder(src)
        self.workload(rec)
        expected = self.final_state(src)

        for system in ("splitfs-strict", "nova-strict", "pmfs", "strata"):
            _, dst = make_filesystem(system, pm_size=PM)
            outcomes = replay(dst, rec.ops)
            assert len(outcomes) > 10
            assert all(status == "ok" for status, _ in outcomes), system
            assert self.final_state(dst) == expected, system

    def test_recorder_is_transparent(self):
        _, plain = make_filesystem("ext4dax", pm_size=PM)
        _, wrapped_inner = make_filesystem("ext4dax", pm_size=PM)
        wrapped = Recorder(wrapped_inner)
        self.workload(plain)
        self.workload(wrapped)
        assert self.final_state(plain) == self.final_state(wrapped)

    def test_failing_call_replays_to_its_errno(self):
        """A call is recorded before it is made, so failures replay too."""
        _, src = make_filesystem("ext4dax", pm_size=PM)
        rec = Recorder(src)
        with pytest.raises(FileNotFoundFSError):
            rec.unlink("/missing")
        rec.mkdir("/ok")
        assert rec.ops == [FuzzOp("unlink", path="/missing"),
                           FuzzOp("mkdir", path="/ok")]

        _, dst = make_filesystem("ext4dax", pm_size=PM)
        assert replay(dst, rec.ops) == [("err", "ENOENT"), ("ok", None)]
        assert dst.exists("/ok")

    def test_lenient_replay_skips_errors(self):
        """A call that fails only on the replay target stops nothing."""
        _, src = make_filesystem("ext4dax", pm_size=PM)
        rec = Recorder(src)
        rec.mkdir("/d")
        rec.write_file("/d/f", b"data")

        _, dst = make_filesystem("ext4dax", pm_size=PM)
        dst.mkdir("/d")
        outcomes = replay(dst, rec.ops)
        assert outcomes[0] == ("err", "EEXIST")
        assert all(status == "ok" for status, _ in outcomes[1:])
        assert dst.read_file("/d/f") == b"data"

    def test_unknown_op_rejected(self):
        _, dst = make_filesystem("ext4dax", pm_size=PM)
        status, detail = apply_op(dst, {}, FuzzOp("frobnicate", path="/x"))
        assert status == "crash"
        assert "unknown fuzz call 'frobnicate'" in detail

    def test_fd_tokens_are_stable(self):
        """Two systems with different fd numbering replay the same trace."""
        _, src = make_filesystem("splitfs-posix", pm_size=PM)  # fds ~1000+
        rec = Recorder(src)
        fd1 = rec.open("/x", F.O_CREAT | F.O_RDWR)
        fd2 = rec.open("/y", F.O_CREAT | F.O_RDWR)
        rec.write(fd1, b"one")
        rec.write(fd2, b"two")
        rec.close(fd1)
        rec.close(fd2)
        with pytest.raises(BadFileDescriptorError):
            rec.close(fd1)  # no longer open: slot -1, EBADF on replay too
        assert [op.slot for op in rec.ops] == [0, 1, 0, 1, 0, 1, -1]
        _, dst = make_filesystem("ext4dax", pm_size=PM)  # fds ~3+
        assert replay(dst, rec.ops)[-1] == ("err", "EBADF")
        assert dst.read_file("/x") == b"one"
        assert dst.read_file("/y") == b"two"


class TestRoundTripProperty:
    """Record -> replay over the difftest generator: post-states identical.

    The fuzz generator produces adversarial sequences (bad fds, colliding
    paths, vectored IO, renames over open files).  Every call is recorded,
    failing ones included, and replaying the recording on a fresh instance
    must land in the identical visible namespace.
    """

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_record_replay_identical_post_state(self, seed):
        ops = generate_ops(seed, 120, faults=False)
        _, src = make_filesystem("ext4dax", pm_size=PM)
        rec = Recorder(src)
        slots = {}
        for op in ops:
            status, detail = apply_op(rec, slots, op)
            # The recorder must be POSIX-transparent: errors surface as
            # FSError ("err"), never as raw recorder exceptions.
            assert status != "crash", (op.describe(), detail)
        expected = snapshot(src)

        _, dst = make_filesystem("ext4dax", pm_size=PM)
        replay(dst, rec.ops)
        assert snapshot(dst) == expected

    def test_roundtrip_across_systems(self):
        ops = generate_ops(7, 80, faults=False)
        _, src = make_filesystem("ext4dax", pm_size=PM)
        rec = Recorder(src)
        slots = {}
        for op in ops:
            apply_op(rec, slots, op)
        expected = snapshot(src)

        for system in ("splitfs-strict", "nova-strict"):
            _, dst = make_filesystem(system, pm_size=PM)
            replay(dst, rec.ops)
            assert snapshot(dst) == expected, system
