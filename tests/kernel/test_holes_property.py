"""The write path's hole filler against the per-block scan it replaced.

``KernelFS._ensure_blocks`` finds the holes a write covers with
``ExtentMap.holes``; ``tests/reference_impls.kernel_ensure_blocks`` looks
up every block, as NOVA-relaxed and Strata did.  Random write, pwrite and
ftruncate sequences run on each system that fills holes on its write path,
once as is and once under ``reference_mode()``: the extent maps, the
device bytes and the clock accounts must be equal.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.factory import make_filesystem
from repro.pmem import constants as C
from repro.posix import flags as F
from tests.reference_impls import reference_mode

PM = 32 << 20
#: A byte position in the file's first 24 blocks (so writes overlap),
#: often on a block boundary (so a write may cover a fresh extent's head
#: or tail only).
POS = st.one_of(st.integers(0, 24 * C.BLOCK_SIZE),
                st.integers(0, 24).map(lambda block: block * C.BLOCK_SIZE))

ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(1, 3 * C.BLOCK_SIZE)),
        st.tuples(st.just("pwrite"), POS, POS),
        st.tuples(st.just("ftruncate"), POS),
    ),
    min_size=1, max_size=12)


def run(kind, sequence):
    """``(extent maps, device bytes, clock account)`` after ``sequence``."""
    machine, fs = make_filesystem(kind, pm_size=PM)
    fd = fs.open("/f", F.O_CREAT | F.O_RDWR)
    for i, (op, *args) in enumerate(sequence):
        fill = bytes([i % 250 + 1])
        if op == "write":
            fs.write(fd, fill * args[0])
        elif op == "pwrite":
            start, end = sorted(args)
            fs.pwrite(fd, fill * max(1, end - start), start)
        else:
            fs.ftruncate(fd, args[0])
    if kind == "strata":
        fs.digest()  # Strata fills holes when its digest copies the log out
    extents = {ino: list(inode.extmap) for ino, inode in fs.inodes.items()}
    return extents, machine.pm.peek(0, PM), machine.clock.account


@pytest.mark.parametrize("kind", ["ext4dax", "nova-relaxed", "strata"])
@settings(max_examples=25, deadline=None)
@given(sequence=ops)
def test_hole_filler_matches_the_per_block_scan(kind, sequence):
    extents, device, account = run(kind, sequence)
    with reference_mode():
        ref_extents, ref_device, ref_account = run(kind, sequence)
    assert extents == ref_extents
    assert device == ref_device
    assert account == ref_account
