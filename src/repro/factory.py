"""Factory for the evaluated file systems: one table of the eight kinds
gives how each is formatted and how it is mounted again after a crash.

Every experiment in the paper compares systems at equal guarantees
(paper Table 3):

=========  =========================================================
guarantee  systems
=========  =========================================================
POSIX      ``ext4dax``, ``splitfs-posix``
sync       ``pmfs``, ``nova-relaxed``, ``splitfs-sync``
strict     ``nova-strict``, ``strata``, ``splitfs-strict``
=========  =========================================================
"""

from __future__ import annotations

from typing import Optional, Tuple

from .core.modes import Mode
from .core.recovery import recover
from .core.splitfs import SplitFS, SplitFSConfig
from .ext4.filesystem import Ext4DaxFS
from .ext4.fsck import assert_clean
from .kernel.machine import DEFAULT_PM_SIZE, Machine
from .nova.filesystem import NovaFS
from .pmfs.filesystem import PmfsFS
from .posix.api import FileSystemAPI
from .strata.filesystem import StrataFS


def _mount_ext4(machine: Machine) -> FileSystemAPI:
    fs = Ext4DaxFS.mount(machine)
    assert_clean(fs)
    return fs


def _splitfs(mode: Mode):
    """SplitFS in ``mode`` over a new ext4-DAX; after a crash U-Split is
    gone, so recovery replays the operation log (strict mode) into ext4,
    which must then pass fsck."""

    def format_fs(machine: Machine, config: Optional[SplitFSConfig]):
        return SplitFS(Ext4DaxFS.format(machine), mode=mode, config=config)

    def mount(machine: Machine) -> FileSystemAPI:
        kfs, _report = recover(machine, strict=mode is Mode.STRICT)
        assert_clean(kfs)
        return kfs

    return format_fs, mount


#: Every kind, as ``(format, mount)``: ``format(machine, splitfs_config)``
#: builds a new system (the kernel file systems ignore the config) and
#: ``mount(machine)`` brings it back after a crash through its own recovery
#: path.  The lambdas look the classes up at call time, so class-wide
#: wrappers (tracing) see these calls.
_KINDS = {
    "ext4dax": (lambda m, _c: Ext4DaxFS.format(m), _mount_ext4),
    "pmfs": (lambda m, _c: PmfsFS.format(m), lambda m: PmfsFS.mount(m)),
    "nova-strict": (lambda m, _c: NovaFS.format(m, strict=True),
                    lambda m: NovaFS.mount(m, strict=True)),
    "nova-relaxed": (lambda m, _c: NovaFS.format(m, strict=False),
                     lambda m: NovaFS.mount(m, strict=False)),
    "strata": (lambda m, _c: StrataFS.format(m), lambda m: StrataFS.mount(m)),
    "splitfs-posix": _splitfs(Mode.POSIX),
    "splitfs-sync": _splitfs(Mode.SYNC),
    "splitfs-strict": _splitfs(Mode.STRICT),
}

SYSTEM_NAMES = tuple(_KINDS)

#: Systems grouped by the guarantee level they provide (Figure 4/6 groups).
GUARANTEE_GROUPS = {
    "posix": ("ext4dax", "splitfs-posix"),
    "sync": ("pmfs", "nova-relaxed", "splitfs-sync"),
    "strict": ("nova-strict", "strata", "splitfs-strict"),
}


def make_filesystem(
    name: str,
    pm_size: int = DEFAULT_PM_SIZE,
    machine: Optional[Machine] = None,
    splitfs_config: Optional[SplitFSConfig] = None,
    ras: bool = False,
    observer=None,
    device_profile=None,
    numa_remote: bool = False,
    seed: int = 0,
) -> Tuple[Machine, FileSystemAPI]:
    """Build a freshly formatted file system of the named kind.

    This is the one place a kind name becomes a formatted system: the
    crash explorer, the serve engine and the benchmarks all come here.
    Returns ``(machine, fs)``; the machine's clock and device stats hold
    every measurement an experiment needs.  ``seed`` seeds a new machine's
    crash RNG (see :class:`~repro.kernel.machine.Machine`).  ``ras=True``
    enables the online RAS layer (checksums, metadata replication,
    scrubbing, degraded mode) on the machine before formatting.
    ``observer`` (a :class:`~repro.obs.Observer`) binds span tracing and
    latency attribution to the machine's clock before any setup work runs.
    ``device_profile`` (a name from ``repro.pmem.devmodel.PROFILES`` or a
    ``DeviceProfile``) opts the machine into the calibrated device model
    before formatting, so the whole image — setup included — pays device
    economics; ``numa_remote=True`` adds remote-access penalties (implies
    the ``optane`` profile when none is named).  Both default to off: the
    fixed-cost device of the committed goldens.
    """
    if name not in _KINDS:
        raise ValueError(f"unknown system {name!r}; choose from {SYSTEM_NAMES}")
    machine = machine or Machine(pm_size, seed=seed, observer=observer)
    if observer is not None and machine.obs is not observer:
        observer.bind(machine.clock)
    if device_profile is not None or numa_remote:
        machine.enable_device_model(
            profile=device_profile if device_profile is not None else "optane",
            numa_remote=numa_remote)
    if ras:
        machine.enable_ras()
    return machine, _KINDS[name][0](machine, splitfs_config)


def remount(machine: Machine, kind: str) -> FileSystemAPI:
    """Bring ``kind`` back after a crash, via its own recovery path.

    Raises (mount failure, fsck findings) when the image is broken — the
    crash explorer treats any exception here as a violation of the
    universal "always remountable" guarantee.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown file-system kind {kind!r}")
    return _KINDS[kind][1](machine)
