"""``CowBuffer`` against plain ``bytearray``s, over a three-level fork chain.

A root, its child and the child's child each take random writes, a
parent only before it is forked (the pause discipline of
:mod:`repro.pmem.cow`): writes to part of a segment, whole-segment
writes of zeros and of other bytes, and runs that cover whole segments
between two partial ends.  Afterwards every level must read like its
model, ``segment(n)`` must be ``None`` exactly where it may be (the model
segment is zeros) and equal the model otherwise, and each fork's
``CowStats`` must follow the rules: ``bytes_shared`` is the size less the
segments the fork owns, and only a partial write's first touch of a
segment copies it.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.pmem.cow import SEGMENT_SIZE, CowBuffer, CowStats

SEGMENTS = 4
SIZE = SEGMENTS * SEGMENT_SIZE


def payload(kind: str, length: int, seed: int) -> bytes:
    if kind == "zero":
        return bytes(length)
    return random.Random(seed).randbytes(length)


partial = st.tuples(
    st.just("partial"), st.integers(0, SIZE - 1),
    st.integers(1, SEGMENT_SIZE // 2), st.sampled_from(["zero", "bytes"]),
    st.integers(0, 1 << 16))
whole = st.tuples(
    st.just("whole"), st.integers(0, SEGMENTS - 1), st.integers(1, 2),
    st.sampled_from(["zero", "bytes"]), st.integers(0, 1 << 16))
#: A run from inside segment n - 1 to inside segment n + k: partial ends
#: around whole segments, like the log re-zero.
span = st.tuples(
    st.just("span"), st.integers(1, SEGMENTS - 2), st.integers(1, 2),
    st.sampled_from(["zero", "bytes"]), st.integers(0, 1 << 16))
writes = st.lists(st.one_of(partial, whole, span), max_size=6)


def place(op):
    """``(start, data)`` of one generated write, clipped to the buffer."""
    shape, a, b, kind, seed = op
    if shape == "partial":
        start, length = a, min(b, SIZE - a)
    elif shape == "whole":
        start = a * SEGMENT_SIZE
        length = min(b, SEGMENTS - a) * SEGMENT_SIZE
    else:
        start = a * SEGMENT_SIZE - 100
        length = min((a + b) * SEGMENT_SIZE + 200, SIZE - 1) - start
    return start, payload(kind, length, seed)


class Level:
    """One buffer, its model, and the stats the model predicts for it."""

    def __init__(self, buf: CowBuffer, model: bytearray) -> None:
        self.buf = buf
        self.model = model
        self.owned = set()
        self.copies = 0

    def write(self, start: int, data: bytes) -> None:
        self.buf.write(start, data)
        self.model[start : start + len(data)] = data
        stop = start + len(data)
        for n in range(start // SEGMENT_SIZE, (stop - 1) // SEGMENT_SIZE + 1):
            whole = (start <= n * SEGMENT_SIZE
                     and stop >= (n + 1) * SEGMENT_SIZE)
            if n not in self.owned and not whole:
                self.copies += 1
            self.owned.add(n)

    def check(self, reads) -> None:
        buf, model = self.buf, self.model
        assert bytes(buf) == bytes(model)
        for start, length in reads:
            stop = min(start + length, SIZE)
            assert buf.read(start, stop) == bytes(model[start:stop])
        for n in range(SEGMENTS):
            want = bytes(model[n * SEGMENT_SIZE : (n + 1) * SEGMENT_SIZE])
            seg = buf.segment(n)
            if seg is None:
                assert want == bytes(SEGMENT_SIZE)
            else:
                assert bytes(seg) == want
        stats = buf.stats
        if stats is not None:
            assert stats.forks == 1
            assert stats.bytes_shared == SIZE - len(self.owned) * SEGMENT_SIZE
            assert stats.cow_copies == self.copies
            assert stats.cow_bytes_copied == self.copies * SEGMENT_SIZE


@settings(max_examples=150, deadline=None)
@given(st.lists(writes, min_size=3, max_size=3),
       st.lists(st.tuples(st.integers(0, SIZE - 1),
                          st.integers(1, 3 * SEGMENT_SIZE)), max_size=4))
def test_cow_chain_matches_bytearrays(phases, reads):
    root = Level(CowBuffer(SIZE), bytearray(SIZE))
    levels = [root]
    for i, ops in enumerate(phases):
        if i:
            parent = levels[-1]
            levels.append(Level(CowBuffer(parent.buf, CowStats()),
                                bytearray(parent.model)))
        for op in ops:
            levels[-1].write(*place(op))
    for level in levels:
        level.check(reads)
    # A root holds no bytes for a segment that reads as zeros.
    assert all(seg is not None for seg in root.buf._own.values())


def test_zero_segment_in_a_fork_shadows_its_base():
    root = CowBuffer(SIZE)
    root.write(SEGMENT_SIZE, b"\xff" * SEGMENT_SIZE)
    stats = CowStats()
    child = CowBuffer(root, stats)
    child.write(0, bytes(2 * SEGMENT_SIZE))
    assert child._own == {0: None, 1: None}
    assert child.read(SEGMENT_SIZE, SEGMENT_SIZE + 8) == bytes(8)
    assert child.read(SEGMENT_SIZE - 8, SEGMENT_SIZE + 8) == bytes(16)
    assert root.read(SEGMENT_SIZE, SEGMENT_SIZE + 1) == b"\xff"
    assert stats.cow_copies == 0
    assert stats.bytes_shared == SIZE - 2 * SEGMENT_SIZE
    child.write(SEGMENT_SIZE + 1, b"x")  # part of a zero segment: no copy
    assert child.read(SEGMENT_SIZE, SEGMENT_SIZE + 3) == b"\x00x\x00"
    assert stats.cow_copies == 0
    assert stats.bytes_shared == SIZE - 2 * SEGMENT_SIZE


def test_zeroing_a_root_segment_frees_it():
    root = CowBuffer(SIZE)
    root.write(10, b"abc")
    assert list(root._own) == [0]
    root.write(0, bytes(SEGMENT_SIZE))
    assert root._own == {}
    assert root.read(0, SIZE) == bytes(SIZE)
