"""SplitFS consistency modes (paper Table 3).

=========  ==========  ============  ==============  ================
Mode       sync data   atomic data   sync metadata   atomic metadata
=========  ==========  ============  ==============  ================
POSIX      no          no            no              yes
sync       yes         no            yes             yes
strict     yes         yes           yes             yes
=========  ==========  ============  ==============  ================

Appends are atomic in *every* mode (a series of appends followed by
``fsync`` lands atomically via relink).  Concurrent applications may use
different modes over the same kernel file system without interfering.
"""

from __future__ import annotations

import enum


class Mode(enum.Enum):
    POSIX = "posix"
    SYNC = "sync"
    STRICT = "strict"

    @property
    def sync_data(self) -> bool:
        """Data operations are durable when the call returns."""
        return self is not _POSIX

    @property
    def atomic_data(self) -> bool:
        """Data operations are all-or-nothing across a crash."""
        return self is _STRICT

    @property
    def logs_operations(self) -> bool:
        """Strict mode logs every operation to the operation log."""
        return self is _STRICT

    @property
    def stages_overwrites(self) -> bool:
        """Strict mode redirects overwrites to staging files (localized CoW)."""
        return self is _STRICT

    @property
    def equivalent_systems(self) -> str:
        return {
            Mode.POSIX: "ext4-DAX",
            Mode.SYNC: "NOVA-relaxed, PMFS",
            Mode.STRICT: "NOVA-strict, Strata",
        }[self]


# Plain module attributes for the properties above, which run on every
# syscall.  On Python 3.11 every ``Mode.X`` read goes through
# ``EnumType.__getattr__``, several times slower than a global.
_POSIX = Mode.POSIX
_STRICT = Mode.STRICT
