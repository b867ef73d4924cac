"""``fallocate`` fills a file's holes as the per-block version did.

A file written block by block in turns with another has its blocks
scattered and holes between them.  ``fallocate`` must then map the same
logical blocks to the same physical blocks, leave the allocator and the
file size in the same state and charge the same simulated time as the
version in ``tests/reference_impls.py`` that looked up every block.
"""

from hypothesis import given, settings, strategies as st

from repro.ext4.filesystem import Ext4DaxFS
from repro.kernel.machine import Machine
from repro.pmem import constants as C
from repro.posix import flags as F
from tests.reference_impls import ext4_fallocate

PM = 32 * 1024 * 1024


def run(fallocate, written, length, huge_aligned):
    machine = Machine(PM, seed=0)
    fs = Ext4DaxFS.format(machine)
    fd = fs.open("/f", F.O_CREAT | F.O_RDWR)
    other = fs.open("/g", F.O_CREAT | F.O_RDWR)
    for i, block in enumerate(written):
        fs.pwrite(fd, b"f" * C.BLOCK_SIZE, block * C.BLOCK_SIZE)
        fs.pwrite(other, b"g" * C.BLOCK_SIZE, i * C.BLOCK_SIZE)
    fallocate(fs, fd, length, huge_aligned=huge_aligned)
    inode = fs.inodes[fs.fdt.get(fd).ino]
    return (inode.extmap.extents, inode.size, fs.alloc.free_blocks,
            machine.clock.now_ns)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 40), unique=True, max_size=10),
       st.integers(0, 48 * C.BLOCK_SIZE), st.booleans())
def test_fallocate_matches_the_per_block_version(written, length,
                                                 huge_aligned):
    assert (run(Ext4DaxFS.fallocate, written, length, huge_aligned)
            == run(ext4_fallocate, written, length, huge_aligned))
