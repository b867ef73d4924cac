"""Property-based tests: the extent map behaves like a logical->physical dict."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ext4.extents import ExtentMap
from tests import reference_impls as ref_impl

MAX_LOGICAL = 64


class ModelOps:
    """Reference model: plain dict of logical block -> physical block."""

    def __init__(self):
        self.map = {}
        self.em = ExtentMap()
        self.next_phys = 1000

    def insert(self, logical, length):
        span = range(logical, logical + length)
        if any(lb in self.map for lb in span):
            return
        self.em.insert(logical, self.next_phys, length)
        for i, lb in enumerate(span):
            self.map[lb] = self.next_phys + i
        self.next_phys += length + 3  # gap: prevent accidental coalescing

    def punch(self, logical, length):
        removed = self.em.punch(logical, length)
        removed_model = []
        for lb in range(logical, logical + length):
            if lb in self.map:
                removed_model.append(self.map.pop(lb))
        flat = [e.start + i for e in removed for i in range(e.length)]
        assert sorted(flat) == sorted(removed_model)

    def check(self):
        for lb in range(MAX_LOGICAL + 8):
            assert self.em.lookup_block(lb) == self.map.get(lb)
        assert self.em.blocks_used == len(self.map)


op_strategy = st.lists(
    st.tuples(
        st.sampled_from(["insert", "punch"]),
        st.integers(min_value=0, max_value=MAX_LOGICAL),
        st.integers(min_value=1, max_value=12),
    ),
    max_size=60,
)


@given(ops=op_strategy)
@settings(max_examples=120)
def test_extent_map_matches_dict_model(ops):
    model = ModelOps()
    for op, logical, length in ops:
        if op == "insert":
            model.insert(logical, length)
        else:
            model.punch(logical, length)
        model.check()


@given(ops=op_strategy)
@settings(max_examples=60)
def test_extents_always_sorted_and_disjoint(ops):
    model = ModelOps()
    for op, logical, length in ops:
        (model.insert if op == "insert" else model.punch)(logical, length)
        exts = model.em.extents
        for a, b in zip(exts, exts[1:]):
            assert a.logical_end <= b.logical


@given(
    logical=st.integers(min_value=0, max_value=32),
    length=st.integers(min_value=1, max_value=32),
    punch_at=st.integers(min_value=0, max_value=64),
    punch_len=st.integers(min_value=1, max_value=32),
)
@settings(max_examples=100)
def test_punch_then_reinsert_round_trips(logical, length, punch_at, punch_len):
    em = ExtentMap()
    em.insert(logical, 500, length)
    removed = em.punch(punch_at, punch_len)
    cursor = max(punch_at, logical)
    for ext in removed:
        em.insert(cursor, ext.start, ext.length)
        cursor += ext.length
    for lb in range(logical, logical + length):
        assert em.lookup_block(lb) == 500 + (lb - logical)


# ---------------------------------------------------------------------------
# Bisect fast paths vs. the linear oracles in tests/reference_impls.py
# ---------------------------------------------------------------------------
#
# The O(log n) lookup/insert paths (cursor + bisect index) must be
# observationally identical to the original O(n) implementations they
# replaced, including over holes, extent-straddling byte ranges, and the
# empty map.  Interleaved queries deliberately drag the last-hit cursor
# around before each comparison.

BLOCK = 4096


def _build_maps(extent_spec):
    """Two identical maps (fast inserts vs reference inserts), or None if
    the spec self-overlaps."""
    fast, ref = ExtentMap(), ExtentMap()
    phys = 1000
    for logical, length in extent_spec:
        try:
            fast.insert(logical, phys, length)
        except ValueError:
            return None
        ref_impl.extent_insert(ref, logical, phys, length)
        phys += length + 5  # gap: avoid accidental physical coalescing
    return fast, ref


def _tiled(runs):
    """``(gap, length)`` runs laid end to end as ``(logical, length)``
    extents: a gap of 0 makes neighbours logically adjacent (physically they
    never are), the case where an insert must not coalesce."""
    spec, logical = [], 0
    for gap, length in runs:
        logical += gap
        spec.append((logical, length))
        logical += length
    return spec


extent_spec_st = st.one_of(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=MAX_LOGICAL),
            st.integers(min_value=1, max_value=12),
        ),
        max_size=12,
    ),
    # Adjacent extents inserted in random order.
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=2),
                  st.integers(min_value=1, max_value=6)),
        max_size=10,
    ).map(_tiled).flatmap(st.permutations),
)


@given(spec=extent_spec_st, queries=st.lists(
    st.integers(min_value=0, max_value=MAX_LOGICAL + 16), max_size=40))
@settings(max_examples=150)
def test_lookup_block_matches_reference(spec, queries):
    maps = _build_maps(spec)
    if maps is None:
        return
    fast, ref = maps
    assert fast.extents == ref.extents
    for logical in queries:
        assert fast.lookup_block(logical) == \
            ref_impl.extent_lookup_block(fast, logical)
        assert fast.lookup_block(logical) == ref.lookup_block(logical)


@given(spec=extent_spec_st, ranges=st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=(MAX_LOGICAL + 16) * BLOCK),
        st.integers(min_value=0, max_value=8 * BLOCK),
    ),
    max_size=25))
@settings(max_examples=150)
def test_map_byte_range_matches_reference(spec, ranges):
    maps = _build_maps(spec)
    if maps is None:
        return
    fast, _ = maps
    for offset, size in ranges:
        got = fast.map_byte_range(offset, size)
        want = ref_impl.extent_map_byte_range(fast, offset, size)
        assert got == want
        # Pieces tile the request exactly.
        assert sum(run for _, run in got) == size


def test_empty_map_edge_cases():
    em = ExtentMap()
    assert em.lookup_block(0) is None
    assert em.map_byte_range(0, 0) == \
        ref_impl.extent_map_byte_range(em, 0, 0) == []
    assert em.map_byte_range(123, 4096) == \
        ref_impl.extent_map_byte_range(em, 123, 4096) == [(None, 4096)]


def test_sequential_scan_uses_cursor_and_stays_correct():
    em = ExtentMap()
    for i in range(0, 40, 4):
        em.insert(i, 2000 + i * 7, 2)  # every other 2-block extent: holes
    for lb in range(44):
        assert em.lookup_block(lb) == ref_impl.extent_lookup_block(em, lb)
    # Backwards scan after the cursor was dragged to the end.
    for lb in reversed(range(44)):
        assert em.lookup_block(lb) == ref_impl.extent_lookup_block(em, lb)
    # A jump from one extent to the hole just past the next one must not be
    # taken for a hit in the cursor's successor.
    for lb in range(0, 36, 4):
        em.lookup_block(lb)
        assert (em.lookup_block(lb + 6)
                == ref_impl.extent_lookup_block(em, lb + 6))
