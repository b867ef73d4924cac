"""Torn operation-log slots and crash-during-recovery (strict mode).

The SplitFS operation log identifies valid entries purely by per-entry
checksum (paper Section 3.3); a slot torn at the crash must be discarded
by the recovery scan, and replay must stay idempotent even when recovery
itself is interrupted by a second crash.
"""

import pytest

from repro.core import Mode, SplitFS, recover
from repro.core.oplog import ENTRY_SIZE
from repro.crashmc.trace import CrashTriggered
from repro.ext4.filesystem import Ext4DaxFS
from repro.kernel.machine import Machine
from repro.posix import flags as F
from tests.crashmc.replay import CrashTrigger

PM = 96 * 1024 * 1024


def strict_fs_with_two_appends():
    machine = Machine(PM)
    fs = SplitFS(Ext4DaxFS.format(machine), mode=Mode.STRICT)
    fd = fs.open("/f", F.O_CREAT | F.O_RDWR)
    fs.pwrite(fd, b"A" * 100, 0)
    fs.pwrite(fd, b"B" * 100, 100)
    return machine, fs


class TestTornOplogEntry:
    def test_torn_slot_discarded_by_scan(self):
        machine, fs = strict_fs_with_two_appends()
        # Slot 0 = create, slot 1 = first append, slot 2 = second append.
        intact = len(fs.oplog.scan())
        assert intact == 3
        machine.faults.tear_line(machine.pm, fs.oplog.base + 2 * ENTRY_SIZE)
        machine.crash()
        kfs, report = recover(machine, strict=True)
        # The torn entry is no longer scanned as valid; only the intact
        # prefix of the operation replays.
        assert report.entries_scanned == intact - 1
        assert kfs.read_file("/f") == b"A" * 100

    def test_intact_log_replays_fully(self):
        machine, fs = strict_fs_with_two_appends()
        machine.crash()
        kfs, report = recover(machine, strict=True)
        assert kfs.read_file("/f") == b"A" * 100 + b"B" * 100
        assert report.data_entries_replayed >= 2

    def test_replay_idempotent_after_crash_mid_recovery(self):
        """A second crash in the middle of replay must not lose or duplicate
        anything: recovery replays by copying, never by consuming."""
        machine, fs = strict_fs_with_two_appends()
        machine.crash()
        trigger = CrashTrigger(fence_index=2)
        machine.pm.attach_observer(trigger)
        try:
            with pytest.raises(CrashTriggered):
                recover(machine, strict=True)
        finally:
            machine.pm.detach_observer()
        assert trigger.fired
        machine.crash()  # second crash, mid-recovery
        kfs, _ = recover(machine, strict=True)
        assert kfs.read_file("/f") == b"A" * 100 + b"B" * 100

    @pytest.mark.parametrize("fence", [1, 3, 5, 8])
    def test_recovery_survives_crash_at_any_early_fence(self, fence):
        machine, fs = strict_fs_with_two_appends()
        machine.crash()
        trigger = CrashTrigger(fence_index=fence)
        machine.pm.attach_observer(trigger)
        try:
            recover(machine, strict=True)
        except CrashTriggered:
            pass
        finally:
            machine.pm.detach_observer()
        machine.crash()
        kfs, _ = recover(machine, strict=True)
        assert kfs.read_file("/f") == b"A" * 100 + b"B" * 100
