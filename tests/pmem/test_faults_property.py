"""Property test: the fault injector's indexed poison list vs. a linear scan.

:class:`~repro.pmem.faults.FaultInjector` keeps ``poisoned`` sorted and
looks only at a bisected window of it; :class:`tests.reference_impls.
ListPoison` is the unsorted list it replaced, scanned in full.  Random
sequences of arming, repair, stores and queries over overlapping,
duplicate and line-adjacent ranges must give the same answers, the same
fired counters, and the same entries (as a multiset: never merged).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pmem.faults import FaultInjector, MediaError
from tests.reference_impls import ListPoison

addr_st = st.one_of(st.integers(0, 2048), st.integers(0, 32).map(lambda k: k * 64))
size_st = st.one_of(st.integers(0, 300), st.sampled_from([64, 128, 1024]))
step_st = st.tuples(
    st.sampled_from(["poison", "poison", "unpoison", "on_store", "check_load",
                     "is_poisoned", "poisoned_overlaps"]),
    addr_st, size_st)


def check_load(faults, addr, size):
    try:
        faults.check_load(addr, size)
    except MediaError as exc:
        return str(exc)
    return None


@given(steps=st.lists(step_st, max_size=60))
@settings(max_examples=300, deadline=None)
def test_poison_index_matches_linear_scan(steps):
    fast, ref = FaultInjector(), ListPoison()
    for op, addr, size in steps:
        if op == "check_load":
            assert check_load(fast, addr, size) == check_load(ref, addr, size)
        else:
            assert (getattr(fast, op)(addr, size)
                    == getattr(ref, op)(addr, size))
        assert fast.poisoned == sorted(ref.poisoned)
        assert fast.media_faults_fired == ref.media_faults_fired
        assert fast.poison_cleared_by_write == ref.poison_cleared_by_write
    child = fast.fork()
    assert child.poisoned == fast.poisoned
    for addr in range(0, 2400, 37):
        assert child.is_poisoned(addr, 50) == ref.is_poisoned(addr, 50)


def test_duplicates_and_overlaps_are_kept_apart():
    faults = FaultInjector()
    faults.poison(128, 64)
    faults.poison(128, 64)
    faults.poison(100, 100)
    assert faults.poisoned == [(100, 200), (128, 192), (128, 192)]
    assert faults.poisoned_overlaps(0, 4096) == [(100, 200), (128, 192),
                                                 (128, 192)]
    faults.unpoison(150, 10)
    assert faults.poisoned == [(100, 150), (128, 150), (128, 150),
                               (160, 192), (160, 192), (160, 200)]
