"""Property tests: the run-based persistence domain vs. its per-line reference.

Two identical domains take the same random sequence of stores (the
``note_store`` hook followed by the buffer write, as the device issues
them), ``clwb``s, ``sfence``s, forks and crashes: one is
:class:`~repro.pmem.cache.PersistenceDomain`, the other the per-line
:class:`tests.reference_impls.LinePersistenceDomain`.  After every step
the return values, the dirty lines *in order* (a crash draws its RNG in
that order), the flushed-but-unfenced lines, both counts and
``is_durable`` must agree, and after every crash the device bytes.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.pmem.cache import CrashPolicy, PersistenceDomain
from repro.pmem.cow import SEGMENT_SIZE, CowBuffer
from tests.reference_impls import LinePersistenceDomain

#: Accesses land in an 8 KiB window straddling a segment boundary, so
#: stores overlap each other's lines and span two segments.
WINDOW = SEGMENT_SIZE - 2048
SPAN = 2 * 4096

#: Offsets and sizes favour one-line stores and line-aligned ranges, so
#: stores land on, beside and across each other's runs.
off_st = st.one_of(st.integers(0, 4096), st.integers(0, 7).map(lambda k: k * 64))
size_st = st.one_of(st.integers(1, 64), st.integers(0, 600),
                    st.sampled_from([64, 128, 1024, 4096]))
store_st = st.tuples(st.just("store"), off_st, size_st, st.booleans(),
                     st.integers(1, 255))
step_st = st.one_of(
    store_st,
    store_st,
    store_st,
    st.tuples(st.just("clwb"), off_st, size_st.filter(bool)),
    st.tuples(st.just("sfence")),
    st.tuples(st.just("fork")),
    st.tuples(st.just("crash"), st.sampled_from([0.0, 0.5]),
              st.sampled_from([0.0, 0.5]), st.booleans(),
              st.integers(0, 2**32 - 1)),
    st.tuples(st.just("survivors"),
              st.lists(st.integers(0, 1 << 10), max_size=4)),
)
probe_st = st.lists(st.tuples(off_st, size_st), min_size=1, max_size=4)


def pending_lines(domain):
    if isinstance(domain, LinePersistenceDomain):
        return set(domain._pending_fence)
    return {line for start, end, *_, pending in domain._runs if pending
            for line in range(start, end)}


def state(domain):
    return (list(domain.dirty_lines()), pending_lines(domain),
            domain.dirty_line_count, domain.pending_line_count)


def window(domain):
    return domain.buf.read(WINDOW, WINDOW + SPAN)


def assert_same(fast, ref, probes):
    # The invariant every bisect relies on: sorted, disjoint, non-empty.
    runs = fast._runs
    assert all(start < end for start, end, *_ in runs)
    assert all(a[1] <= b[0] for a, b in zip(runs, runs[1:]))
    assert state(fast) == state(ref)
    for off, size in probes:
        assert (fast.is_durable(WINDOW + off, size)
                == ref.is_durable(WINDOW + off, size))


@given(steps=st.lists(step_st, max_size=40), probes=probe_st,
       crash_seed=st.integers(0, 2**32 - 1))
@settings(max_examples=500, deadline=None)
# One-line stores that change a tracked line's flag, both ways.
@example(steps=[("store", 0, 8, True, 1), ("store", 0, 8, False, 2),
                ("clwb", 0, 8), ("store", 8, 8, False, 3)],
         probes=[(0, 8)], crash_seed=0)
def test_domain_matches_reference(steps, probes, crash_seed):
    fast = PersistenceDomain(CowBuffer(2 * SEGMENT_SIZE))
    ref = LinePersistenceDomain(CowBuffer(2 * SEGMENT_SIZE))
    forked = []
    for step in steps:
        if step[0] == "store":
            _, off, size, nontemporal, fill = step
            addr = WINDOW + off
            fast.note_store(addr, size, nontemporal)
            ref.note_store(addr, size, nontemporal)
            fast.buf.write(addr, bytes([fill]) * size)
            ref.buf.write(addr, bytes([fill]) * size)
        elif step[0] == "clwb":
            _, off, size = step
            assert fast.clwb(WINDOW + off, size) == ref.clwb(WINDOW + off, size)
        elif step[0] == "sfence":
            assert fast.sfence() == ref.sfence()
        elif step[0] == "fork":
            # Continue on the children; the parents must not see their steps.
            forked.append((fast, state(fast), window(fast)))
            fast = fast.fork(CowBuffer(fast.buf))
            ref = ref.fork(CowBuffer(ref.buf))
        elif step[0] == "crash":
            _, p_dirty, p_pending, tear, seed = step

            def policy():
                return CrashPolicy(survive_probability=p_dirty,
                                   pending_survive_probability=p_pending,
                                   tear_lines=tear, seed=seed)

            assert fast.crash(policy()) == ref.crash(policy())
            assert window(fast) == window(ref)
        else:
            dirty = list(ref.dirty_lines())
            survivors = {dirty[i % len(dirty)] if dirty and i % 3 else
                         WINDOW // 64 + i % (SPAN // 64) for i in step[1]}
            assert (fast.crash_with_survivors(survivors)
                    == ref.crash_with_survivors(survivors))
            assert window(fast) == window(ref)
        assert_same(fast, ref, probes)

    for parent, before, data in forked:
        assert state(parent) == before and window(parent) == data

    def policy():
        return CrashPolicy(survive_probability=0.5,
                           pending_survive_probability=0.5,
                           tear_lines=True, seed=crash_seed)

    assert fast.crash(policy()) == ref.crash(policy())
    assert window(fast) == window(ref)
    assert_same(fast, ref, probes)


def test_store_across_two_runs_captures_each_gap():
    fast = PersistenceDomain(CowBuffer(SEGMENT_SIZE))
    ref = LinePersistenceDomain(CowBuffer(SEGMENT_SIZE))
    for domain in (fast, ref):
        domain.buf.write(0, bytes(range(256)) * 4)
        for addr, size in ((2 * 64, 8), (5 * 64, 8), (0, 640)):
            domain.note_store(addr, size, nontemporal=False)
            domain.buf.write(addr, b"\xff" * size)
    assert len(fast._runs) == 5
    assert fast.crash() == ref.crash() == (10, 0)
    assert fast.buf.read(0, 1024) == ref.buf.read(0, 1024) == bytes(range(256)) * 4
