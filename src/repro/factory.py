"""Factory for the evaluated file systems.

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
from .core.splitfs import SplitFS, SplitFSConfig
from .ext4.filesystem import Ext4DaxFS
from .kernel.machine import DEFAULT_PM_SIZE, Machine
from .nova.filesystem import NovaFS
from .pmfs.filesystem import PmfsFS
from .posix.api import FileSystemAPI
from .strata.filesystem import StrataFS

SYSTEM_NAMES = (
    "ext4dax",
    "pmfs",
    "nova-strict",
    "nova-relaxed",
    "strata",
    "splitfs-posix",
    "splitfs-sync",
    "splitfs-strict",
)

#: Systems grouped by the guarantee level they provide (Figure 4/6 groups).
GUARANTEE_GROUPS = {
    "posix": ("ext4dax", "splitfs-posix"),
    "sync": ("pmfs", "nova-relaxed", "splitfs-sync"),
    "strict": ("nova-strict", "strata", "splitfs-strict"),
}

_SPLITFS_MODES = {
    "splitfs-posix": Mode.POSIX,
    "splitfs-sync": Mode.SYNC,
    "splitfs-strict": Mode.STRICT,
}


def make_filesystem(
    name: str,
    pm_size: int = DEFAULT_PM_SIZE,
    machine: Optional[Machine] = None,
    splitfs_config: Optional[SplitFSConfig] = None,
    ras: bool = False,
    ras_config=None,
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
    if name not in SYSTEM_NAMES:
        raise ValueError(f"unknown system {name!r}; choose from {SYSTEM_NAMES}")
    machine = machine or Machine(pm_size, seed=seed, observer=observer)
    if observer is not None and machine.obs is not observer:
        observer.bind(machine.clock)
    if device_profile is not None or numa_remote:
        machine.enable_device_model(
            profile=device_profile if device_profile is not None else "optane",
            numa_remote=numa_remote)
    if ras or ras_config is not None:
        machine.enable_ras(ras_config)
    if name == "ext4dax":
        return machine, Ext4DaxFS.format(machine)
    if name == "pmfs":
        return machine, PmfsFS.format(machine)
    if name == "nova-strict":
        return machine, NovaFS.format(machine, strict=True)
    if name == "nova-relaxed":
        return machine, NovaFS.format(machine, strict=False)
    if name == "strata":
        return machine, StrataFS.format(machine)
    kfs = Ext4DaxFS.format(machine)
    fs = SplitFS(kfs, mode=_SPLITFS_MODES[name], config=splitfs_config)
    return machine, fs
