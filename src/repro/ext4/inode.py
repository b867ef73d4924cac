"""On-PM inode records for the simulated ext4.

Each inode's primary record occupies one 4 KB block in the inode-table
region.  Large/fragmented files overflow into *extent continuation blocks*
(the miniature of ext4's multi-level extent tree): the primary block lists
up to 16 continuation block addresses, each holding a further 341 extents —
enough for a fully fragmented multi-thousand-block file, which strict-mode
SplitFS produces via single-block relinks.

The serialized images are what the JBD2 journal transports, so runtime
inodes must round-trip exactly through :func:`serialize_inode` /
:func:`deserialize_inode`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..pmem import constants as C
from ..posix.errors import NoSpaceFSError
from .extents import ExtentMap, FileExtent

INODE_MAGIC = 0x45583449  # "EX4I"

_HDR_FMT = "<IIIIIQII"  # magic, ino, mode, flags, nlink, size, nextents, ncont
_HDR_SIZE = struct.calcsize(_HDR_FMT)
_EXT_FMT = "<III"  # logical, phys, length (blocks)
_EXT_SIZE = struct.calcsize(_EXT_FMT)
_HDR = struct.Struct(_HDR_FMT)
_EXT = struct.Struct(_EXT_FMT)
_U32 = struct.Struct("<I")

#: Continuation-block pointers held in the primary record.
MAX_CONT_BLOCKS = 16
_CONT_TABLE_SIZE = 4 * MAX_CONT_BLOCKS

#: Extents that fit in the primary inode block.
MAX_EXTENTS_PRIMARY = (C.BLOCK_SIZE - _HDR_SIZE - _CONT_TABLE_SIZE) // _EXT_SIZE
#: Extents per continuation block.
EXTENTS_PER_CONT = C.BLOCK_SIZE // _EXT_SIZE
#: Absolute ceiling on extents per inode.
MAX_EXTENTS_PER_INODE = MAX_EXTENTS_PRIMARY + MAX_CONT_BLOCKS * EXTENTS_PER_CONT

_FLAG_DIR = 0x1


@dataclass
class Inode:
    """Runtime inode; mirrors the persistent record(s)."""

    ino: int
    mode: int = 0o644
    is_dir: bool = False
    nlink: int = 1
    size: int = 0
    extmap: ExtentMap = field(default_factory=ExtentMap)
    #: Physical block numbers of extent continuation blocks (in order).
    cont_blocks: List[int] = field(default_factory=list)

    @property
    def blocks(self) -> int:
        return self.extmap.blocks_used


def cont_blocks_needed(nextents: int) -> int:
    """Continuation blocks required to store ``nextents`` extents."""
    overflow = nextents - MAX_EXTENTS_PRIMARY
    if overflow <= 0:
        return 0
    return (overflow + EXTENTS_PER_CONT - 1) // EXTENTS_PER_CONT


def serialize_inode(inode: Inode) -> List[bytearray]:
    """Render an inode into its block images: ``[primary, cont0, ...]``.

    The caller must have provisioned ``inode.cont_blocks`` to exactly
    :func:`cont_blocks_needed` entries.
    """
    extents = inode.extmap.extents
    nextents = len(extents)
    if nextents > MAX_EXTENTS_PER_INODE:
        raise NoSpaceFSError(
            f"inode {inode.ino} has {nextents} extents; "
            f"max {MAX_EXTENTS_PER_INODE} (file too fragmented)"
        )
    needed = (cont_blocks_needed(nextents)
              if nextents > MAX_EXTENTS_PRIMARY else 0)
    cont_blocks = inode.cont_blocks
    if len(cont_blocks) != needed:
        raise AssertionError(
            f"inode {inode.ino}: {len(cont_blocks)} continuation "
            f"blocks provisioned, {needed} needed"
        )
    primary = bytearray(C.BLOCK_SIZE)
    _HDR.pack_into(
        primary, 0, INODE_MAGIC, inode.ino, inode.mode,
        _FLAG_DIR if inode.is_dir else 0, inode.nlink, inode.size,
        nextents, needed,
    )
    pos = _HDR_SIZE
    for block in cont_blocks:
        _U32.pack_into(primary, pos, block)
        pos += 4
    pos = _HDR_SIZE + _CONT_TABLE_SIZE
    for e in extents[:MAX_EXTENTS_PRIMARY]:
        _EXT.pack_into(primary, pos, e.logical, e.phys, e.length)
        pos += _EXT_SIZE
    blocks = [primary]
    for i in range(needed):
        block = bytearray(C.BLOCK_SIZE)
        first = MAX_EXTENTS_PRIMARY + i * EXTENTS_PER_CONT
        pos = 0
        for e in extents[first : first + EXTENTS_PER_CONT]:
            _EXT.pack_into(block, pos, e.logical, e.phys, e.length)
            pos += _EXT_SIZE
        blocks.append(block)
    return blocks


def deserialize_inode(
    raw: bytes,
    read_block: Optional[Callable[[int], bytes]] = None,
) -> Optional[Inode]:
    """Parse an inode from its primary block; None if the slot is free.

    ``read_block(phys_block_no)`` supplies continuation blocks; it is only
    called when the inode actually overflows.
    """
    if len(raw) < _HDR_SIZE:
        return None
    magic, ino, mode, flags, nlink, size, nextents, ncont = struct.unpack_from(
        _HDR_FMT, raw
    )
    if magic != INODE_MAGIC or nextents > MAX_EXTENTS_PER_INODE:
        return None
    if ncont > MAX_CONT_BLOCKS:
        return None
    cont_blocks = [
        struct.unpack_from("<I", raw, _HDR_SIZE + 4 * i)[0] for i in range(ncont)
    ]
    extents: List[FileExtent] = []
    base = _HDR_SIZE + _CONT_TABLE_SIZE
    n_primary = min(nextents, MAX_EXTENTS_PRIMARY)
    for i in range(n_primary):
        logical, phys, length = struct.unpack_from(_EXT_FMT, raw, base + i * _EXT_SIZE)
        extents.append(FileExtent(logical, phys, length))
    remaining = nextents - n_primary
    for ci, block in enumerate(cont_blocks):
        if remaining <= 0:
            break
        if read_block is None:
            raise ValueError(f"inode {ino} needs continuation blocks")
        craw = read_block(block)
        take = min(remaining, EXTENTS_PER_CONT)
        for i in range(take):
            logical, phys, length = struct.unpack_from(_EXT_FMT, craw, i * _EXT_SIZE)
            extents.append(FileExtent(logical, phys, length))
        remaining -= take
    return Inode(
        ino=ino,
        mode=mode,
        is_dir=bool(flags & _FLAG_DIR),
        nlink=nlink,
        size=size,
        extmap=ExtentMap(extents),
        cont_blocks=cont_blocks,
    )


def free_inode_block() -> bytes:
    """The image of an unused inode slot."""
    return b"\x00" * C.BLOCK_SIZE
