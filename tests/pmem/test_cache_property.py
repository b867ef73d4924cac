"""Property tests: the batched persistence domain vs. its per-line reference.

Two identical domains take the same random sequence of stores (the
``note_store`` hook followed by the buffer write, as the device issues
them), ``clwb``s and ``sfence``s: one through the fast paths, one through
the per-line loops in ``tests/reference_impls.py``.  Return values, dirty
lines and the flushed-but-unfenced set must agree after every step, and
the device bytes after the same seeded crash.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pmem.cache import CrashPolicy, PersistenceDomain
from repro.pmem.cow import SEGMENT_SIZE, CowBuffer
from tests import reference_impls as ref_impl

#: Accesses land in a 4 KiB window straddling a segment boundary, so
#: stores overlap each other's lines and span two segments.
WINDOW = SEGMENT_SIZE - 2048

step_st = st.one_of(
    st.tuples(st.just("store"), st.integers(0, 4096), st.integers(0, 600),
              st.booleans(), st.integers(1, 255)),
    st.tuples(st.just("clwb"), st.integers(0, 4096), st.integers(1, 600)),
    st.tuples(st.just("sfence")),
)


@given(steps=st.lists(step_st, max_size=40),
       crash_seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_domain_matches_reference(steps, crash_seed):
    fast = PersistenceDomain(CowBuffer(2 * SEGMENT_SIZE))
    ref = PersistenceDomain(CowBuffer(2 * SEGMENT_SIZE))
    for step in steps:
        if step[0] == "store":
            _, off, size, nontemporal, fill = step
            addr = WINDOW + off
            fast.note_store(addr, size, nontemporal)
            ref_impl.domain_note_store(ref, addr, size, nontemporal)
            fast.buf.write(addr, bytes([fill]) * size)
            ref.buf.write(addr, bytes([fill]) * size)
        elif step[0] == "clwb":
            _, off, size = step
            assert (fast.clwb(WINDOW + off, size)
                    == ref_impl.domain_clwb(ref, WINDOW + off, size))
        else:
            assert fast.sfence() == ref_impl.domain_sfence(ref)
        assert set(fast.dirty_lines()) == set(ref.dirty_lines())
        assert fast._pending_fence == ref._pending_fence

    def policy():
        return CrashPolicy(survive_probability=0.5,
                           pending_survive_probability=0.5,
                           tear_lines=True, seed=crash_seed)

    assert fast.crash(policy()) == ref.crash(policy())
    assert bytes(fast.buf) == bytes(ref.buf)
