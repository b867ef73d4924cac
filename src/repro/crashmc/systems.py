"""Construction and per-kind post-crash remount/recovery paths.

Mirrors how each system really comes back after a power failure: ext4-DAX
runs journal recovery and must pass fsck; the SplitFS kinds additionally
replay the operation log (strict mode) and must leave a structurally sound
ext4 image; the kernel PM file systems remount from their own on-device
state.
"""

from __future__ import annotations

from ..core import recover
from ..ext4.filesystem import Ext4DaxFS
from ..ext4.fsck import assert_clean
from ..factory import SYSTEM_NAMES, make_filesystem
from ..kernel.machine import Machine
from ..nova.filesystem import NovaFS
from ..pmfs.filesystem import PmfsFS
from ..posix.api import FileSystemAPI
from ..strata.filesystem import StrataFS

#: A freshly formatted instance of a kind on a seeded machine, called as
#: ``fresh(kind, pm_size, seed=..., ras=...)``.  ``ras=True`` enables the
#: RAS layer before formatting, so the sweep exercises crash states with
#: metadata replicas and repair on the remount path (oracles must hold on
#: *repaired* states too).
fresh = make_filesystem


def remount(machine: Machine, kind: str) -> FileSystemAPI:
    """Bring ``kind`` back after a crash, via its own recovery path.

    Raises (mount failure, fsck findings) when the image is broken — the
    explorer treats any exception here as a violation of the universal
    "always remountable" guarantee.
    """
    if kind not in SYSTEM_NAMES:
        raise ValueError(f"unknown file-system kind {kind!r}")
    if kind == "ext4dax":
        fs = Ext4DaxFS.mount(machine)
        assert_clean(fs)
        return fs
    if kind == "pmfs":
        return PmfsFS.mount(machine)
    if kind == "nova-strict":
        return NovaFS.mount(machine, strict=True)
    if kind == "nova-relaxed":
        return NovaFS.mount(machine, strict=False)
    if kind == "strata":
        return StrataFS.mount(machine)
    kfs, _report = recover(machine, strict=kind == "splitfs-strict")
    assert_clean(kfs)
    return kfs
