"""Property-based tests for the extent allocator (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.pmem.allocator import Extent, ExtentAllocator, OutOfSpaceError

TOTAL = 512


class AllocatorMachine(RuleBasedStateMachine):
    """Random alloc/free sequences must never corrupt the free list."""

    def __init__(self):
        super().__init__()
        self.alloc = ExtentAllocator(TOTAL, first_block=7)
        self.live = []  # extents we hold

    @rule(n=st.integers(min_value=1, max_value=64))
    def do_alloc(self, n):
        try:
            exts = self.alloc.alloc(n)
        except OutOfSpaceError:
            assert self.alloc.free_blocks < n
            return
        assert sum(e.length for e in exts) == n
        self.live.extend(exts)

    @rule(idx=st.integers(min_value=0, max_value=10_000))
    def do_free(self, idx):
        if not self.live:
            return
        ext = self.live.pop(idx % len(self.live))
        self.alloc.free([ext])

    @invariant()
    def accounting_is_consistent(self):
        held = sum(e.length for e in self.live)
        assert self.alloc.free_blocks + held == TOTAL
        assert self.alloc.used_blocks == held

    @invariant()
    def no_overlap_between_live_extents(self):
        spans = sorted((e.start, e.end) for e in self.live)
        for (s1, e1), (s2, _) in zip(spans, spans[1:]):
            assert e1 <= s2

    @invariant()
    def free_list_within_bounds(self):
        for e in self.alloc._free:
            assert 7 <= e.start and e.end <= 7 + TOTAL


TestAllocatorStateMachine = AllocatorMachine.TestCase


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=32), min_size=1, max_size=30)
)
@settings(max_examples=50)
def test_alloc_free_all_restores_everything(sizes):
    alloc = ExtentAllocator(2048)
    held = []
    for n in sizes:
        held.extend(alloc.alloc(n))
    alloc.free(held)
    assert alloc.free_blocks == 2048
    assert alloc.largest_free_extent() == 2048
    assert alloc.fragmentation() == 0.0


@given(
    reserves=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=1000),
            st.integers(min_value=1, max_value=48),
        ),
        max_size=12,
    )
)
@settings(max_examples=50)
def test_reserve_never_double_books(reserves):
    alloc = ExtentAllocator(1100)
    booked = []
    for start, length in reserves:
        overlaps = any(s < start + length and start < s + l for s, l in booked)
        if overlaps:
            continue
        alloc.reserve(start, length)
        booked.append((start, length))
    assert alloc.free_blocks == 1100 - sum(l for _, l in booked)


# -- bisect fast paths vs. the linear scans in tests/reference_impls.py ------

alloc_op_st = st.one_of(
    st.tuples(st.just("alloc"), st.integers(1, 48), st.booleans()),
    st.tuples(st.just("alloc_at"), st.integers(0, 560), st.integers(-1, 40)),
    # Goals where the free list's edges are: a free extent's first block,
    # and the block after an allocated extent (ext4's goal).
    st.tuples(st.just("alloc_at_free"), st.integers(0, 10_000),
              st.integers(1, 40)),
    st.tuples(st.just("alloc_after_held"), st.integers(0, 10_000),
              st.integers(1, 40)),
    st.tuples(st.just("alloc_aligned"), st.integers(1, 40),
              st.sampled_from([1, 4, 16, 64])),
    st.tuples(st.just("free_held"), st.integers(0, 10_000), st.integers(0, 3)),
    st.tuples(st.just("free"), st.integers(0, 560), st.integers(-1, 16)),
    st.tuples(st.just("reserve"), st.integers(0, 560), st.integers(-1, 24)),
)


def _outcome(call):
    try:
        return "ok", call()
    except (ValueError, OutOfSpaceError) as exc:
        return type(exc), str(exc)


@given(ops=st.lists(alloc_op_st, max_size=60))
@settings(max_examples=200)
def test_bisects_match_linear_reference(ops):
    """``alloc_at`` and ``free`` leave the same free list, and raise the
    same errors, as the linear scans they replaced."""
    import types

    from tests import reference_impls as ref_impl

    fast = ExtentAllocator(TOTAL, first_block=7)
    ref = ExtentAllocator(TOTAL, first_block=7)
    ref._free_one = types.MethodType(ref_impl.allocator_free_one, ref)
    held = []
    for op, a, b in ops:
        if op == "alloc":
            got = (_outcome(lambda: fast.alloc(a, contiguous=b)),
                   _outcome(lambda: ref.alloc(a, contiguous=b)))
        elif op in ("alloc_at", "alloc_at_free", "alloc_after_held"):
            if op == "alloc_at_free" and fast._free:
                a = fast._free[a % len(fast._free)].start
            elif op == "alloc_after_held" and held:
                a = held[a % len(held)].end
            elif op != "alloc_at":
                continue
            got = (_outcome(lambda: fast.alloc_at(a, b)),
                   _outcome(lambda: ref_impl.allocator_alloc_at(ref, a, b)))
        elif op == "alloc_aligned":
            got = (_outcome(lambda: fast.alloc_aligned(a, b)),
                   _outcome(lambda: ref.alloc_aligned(a, b)))
        elif op == "free_held":
            if not held:
                continue
            ext = held.pop(a % len(held))
            # Free the extent, or a piece of it (b blocks off its front).
            ext = Extent(ext.start + min(b, ext.length - 1),
                         ext.length - min(b, ext.length - 1))
            got = (_outcome(lambda: fast.free([ext])),
                   _outcome(lambda: ref.free([ext])))
        elif op == "free":
            ext = Extent(a, b)
            got = (_outcome(lambda: fast.free([ext])),
                   _outcome(lambda: ref.free([ext])))
        else:
            got = (_outcome(lambda: fast.reserve(a, b)),
                   _outcome(lambda: ref.reserve(a, b)))
        assert got[0] == got[1], (op, a, b)
        status, value = got[0]
        if status == "ok" and op.startswith("alloc") and value:
            held.extend(value if isinstance(value, list) else [value])
        assert fast._free == ref._free
        assert fast.free_blocks == ref.free_blocks
