"""SplitFS staging files.

Appends (and, in strict mode, overwrites) are redirected to pre-allocated
*staging files* on the kernel file system and later relinked into their
target files.  The manager below mirrors the paper's Section 3.5 behaviour:

* a pool of staging files is created and pre-allocated at startup;
* when one is used up, a "background thread" creates a replacement off the
  application's critical path (we account its time separately);
* space is carved so the staging offset shares the target offset's block
  phase, which is what lets relink move whole blocks without copies;
* staging files are pre-allocated 2 MB-aligned so their mappings use huge
  pages from the start (the paper's fragmentation sidestep).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..ext4.filesystem import Ext4DaxFS
from ..pmem import constants as C
from ..pmem.timing import TimeAccount
from ..posix import flags as F

STAGING_DIR = "/.splitfs"


@dataclass
class StagingFile:
    """One pre-allocated staging file."""

    path: str
    kfd: int  # kernel fd, kept open for relink ioctls
    ino: int
    capacity: int
    cursor: int = 0

    def remaining(self) -> int:
        return self.capacity - self.cursor


@dataclass
class Carve:
    """A byte range carved out of a staging file for one staged run."""

    staging: StagingFile
    offset: int
    capacity: int
    used: int = 0


class StagingManager:
    """Pool of staging files with phase-aligned carving."""

    def __init__(
        self,
        kfs: Ext4DaxFS,
        instance_id: int,
        count: int = 4,
        file_size: int = 8 * 1024 * 1024,
        huge_aligned: bool = True,
    ) -> None:
        self.kfs = kfs
        self.instance_id = instance_id
        self.count = count
        self.file_size = file_size
        self.huge_aligned = huge_aligned
        self.files: List[StagingFile] = []
        self.retired: List[StagingFile] = []
        self._serial = 0
        self.background_account = TimeAccount()
        self.background_refills = 0
        if not kfs.exists(STAGING_DIR):
            kfs.mkdir(STAGING_DIR)
        for _ in range(count):
            self.files.append(self._create_file())

    # -- file lifecycle ------------------------------------------------------

    def _create_file(self, size: Optional[int] = None) -> StagingFile:
        size = size or self.file_size
        path = f"{STAGING_DIR}/stage-{self.instance_id}-{self._serial}"
        self._serial += 1
        kfd = self.kfs.open(path, F.O_CREAT | F.O_RDWR | F.O_TRUNC)
        self.kfs.fallocate(kfd, size, huge_aligned=self.huge_aligned)
        ino = self.kfs.fdt.get(kfd).ino
        return StagingFile(path=path, kfd=kfd, ino=ino, capacity=size)

    def _refill_in_background(self) -> None:
        """Create a replacement staging file, charged off the critical path.

        The paper uses a background thread for this; we measure the work and
        then move its cost out of the foreground clock into a separate
        account (it consumes a spare hardware thread, not application time).
        """
        clock = self.kfs.clock
        with clock.measure() as acct:
            self.files.append(self._create_file())
        # Transfer the charges to the background account.
        clock.account.data_ns -= acct.data_ns
        clock.account.meta_io_ns -= acct.meta_io_ns
        clock.account.cpu_ns -= acct.cpu_ns
        self.background_account.data_ns += acct.data_ns
        self.background_account.meta_io_ns += acct.meta_io_ns
        self.background_account.cpu_ns += acct.cpu_ns
        self.background_refills += 1

    # -- carving -----------------------------------------------------------------

    def carve(self, size: int, phase: int, chunk: int = 256 * 1024) -> Carve:
        """Reserve staging space whose offset is ≡ ``phase`` (mod 4 KB).

        ``size`` is the immediate need; the carve is padded to ``chunk`` so
        consecutive appends to the same file stay contiguous in staging.
        """
        want = max(size, chunk)
        current = self.files[0] if self.files else None
        need = ((want + C.BLOCK_SIZE - 1) // C.BLOCK_SIZE + 2) * C.BLOCK_SIZE
        if need > self.file_size:
            # A single write larger than a staging file: carve a dedicated
            # oversized staging file for it.
            current = self._create_file(size=need)
            self.retired.append(current)
            current.cursor = phase + want
            return Carve(staging=current, offset=phase, capacity=want)
        if current is None or current.remaining() < need:
            if current is not None:
                self.retired.append(self.files.pop(0))
            self._refill_in_background()  # keep the pool at full strength
            current = self.files[0]
        start = current.cursor
        aligned = ((start + C.BLOCK_SIZE - 1) // C.BLOCK_SIZE) * C.BLOCK_SIZE + phase
        capacity = min(want, current.capacity - aligned)
        current.cursor = aligned + capacity
        return Carve(staging=current, offset=aligned, capacity=capacity)

    # -- accounting --------------------------------------------------------------

    def space_in_use(self) -> int:
        return sum(f.capacity for f in self.files) + sum(
            f.capacity for f in self.retired
        )
