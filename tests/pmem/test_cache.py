"""Unit tests for the persistence-domain (CPU cache) model."""

import pytest

from repro.pmem.cache import CrashPolicy, PersistenceDomain
from repro.pmem.constants import CACHELINE_SIZE
from repro.pmem.cow import CowBuffer


@pytest.fixture
def buf():
    return CowBuffer(4096)


@pytest.fixture
def domain(buf):
    return PersistenceDomain(buf)


class TestStoreTracking:
    def test_temporal_store_is_volatile(self, buf, domain):
        domain.note_store(0, 8, nontemporal=False)
        buf[0:8] = b"AAAAAAAA"
        assert not domain.is_durable(0, 8)
        assert domain.dirty_line_count == 1

    def test_crash_reverts_unflushed_store(self, buf, domain):
        domain.note_store(0, 8, nontemporal=False)
        buf[0:8] = b"AAAAAAAA"
        lost, survived = domain.crash()
        assert lost == 1 and survived == 0
        assert buf[0:8] == b"\x00" * 8

    def test_flush_fence_makes_durable(self, buf, domain):
        domain.note_store(0, 8, nontemporal=False)
        buf[0:8] = b"AAAAAAAA"
        domain.clwb(0, 8)
        domain.sfence()
        assert domain.is_durable(0, 8)
        domain.crash()
        assert buf[0:8] == b"AAAAAAAA"

    def test_nontemporal_needs_only_fence(self, buf, domain):
        domain.note_store(64, 64, nontemporal=True)
        buf[64:128] = b"B" * 64
        assert domain.pending_line_count == 1
        domain.sfence()
        domain.crash()
        assert buf[64:128] == b"B" * 64

    def test_nontemporal_without_fence_is_lost(self, buf, domain):
        domain.note_store(64, 64, nontemporal=True)
        buf[64:128] = b"B" * 64
        domain.crash()
        assert buf[64:128] == b"\x00" * 64

    def test_store_spanning_lines_tracks_each(self, buf, domain):
        domain.note_store(60, 10, nontemporal=False)  # crosses line 0/1
        buf[60:70] = b"C" * 10
        assert domain.dirty_line_count == 2

    def test_temporal_store_redirties_flushed_line(self, buf, domain):
        domain.note_store(0, 8, nontemporal=False)
        buf[0:8] = b"AAAAAAAA"
        domain.clwb(0, 8)
        # Re-dirty before the fence: the line must not be considered pending.
        domain.note_store(0, 8, nontemporal=False)
        buf[0:8] = b"ZZZZZZZZ"
        assert domain.pending_line_count == 0
        domain.crash()
        assert buf[0:8] == b"\x00" * 8

    def test_preimage_is_first_version(self, buf, domain):
        buf[0:4] = b"orig"
        domain.sfence()
        domain.note_store(0, 4, nontemporal=False)
        buf[0:4] = b"new1"
        domain.note_store(0, 4, nontemporal=False)
        buf[0:4] = b"new2"
        domain.crash()
        assert buf[0:4] == b"orig"


class TestClwb:
    def test_clwb_of_clean_line_is_noop(self, domain):
        assert domain.clwb(0, 64) == 0

    def test_clwb_counts_flushed_lines(self, buf, domain):
        domain.note_store(0, 128, nontemporal=False)
        buf[0:128] = b"D" * 128
        assert domain.clwb(0, 128) == 2
        assert domain.clwb(0, 128) == 0  # already pending

    def test_sfence_returns_drained_count(self, buf, domain):
        domain.note_store(0, 128, nontemporal=True)
        buf[0:128] = b"E" * 128
        assert domain.sfence() == 2
        assert domain.sfence() == 0


class TestCrashPolicies:
    def test_full_survival_policy(self, buf, domain):
        domain.note_store(0, 64, nontemporal=False)
        buf[0:64] = b"F" * 64
        lost, survived = domain.crash(CrashPolicy(survive_probability=1.0, seed=1))
        assert survived == 1 and lost == 0
        assert buf[0:64] == b"F" * 64

    def test_partial_survival_is_seeded_deterministic(self, buf):
        results = []
        for _ in range(2):
            b = CowBuffer(4096)
            d = PersistenceDomain(b)
            for line in range(32):
                d.note_store(line * 64, 64, nontemporal=False)
                b[line * 64 : line * 64 + 64] = b"G" * 64
            d.crash(CrashPolicy(survive_probability=0.5, seed=42))
            results.append(bytes(b))
        assert results[0] == results[1]

    def test_torn_lines_at_8_byte_granularity(self, buf, domain):
        buf[0:64] = b"H" * 64
        domain.sfence()
        domain.note_store(0, 64, nontemporal=False)
        buf[0:64] = b"I" * 64
        domain.crash(CrashPolicy(survive_probability=1.0, tear_lines=True, seed=7))
        # Every 8-byte word is either all-old or all-new.
        for w in range(8):
            word = bytes(buf[w * 8 : w * 8 + 8])
            assert word in (b"H" * 8, b"I" * 8)

    def test_pending_lines_use_pending_probability(self, buf, domain):
        domain.note_store(0, 64, nontemporal=True)
        buf[0:64] = b"J" * 64
        domain.crash(CrashPolicy(pending_survive_probability=1.0, seed=3))
        assert buf[0:64] == b"J" * 64

    def test_crash_clears_tracking(self, buf, domain):
        domain.note_store(0, 64, nontemporal=False)
        buf[0:64] = b"K" * 64
        domain.crash()
        assert domain.dirty_line_count == 0
        assert domain.pending_line_count == 0


class TestCrashPolicyRNG:
    @staticmethod
    def _crash_once(policy):
        buf = CowBuffer(64 * CACHELINE_SIZE)
        d = PersistenceDomain(buf)
        d.note_store(0, len(buf), nontemporal=False)
        return d.crash(policy)

    def test_repeated_crashes_advance_one_stream(self):
        # Regression: rng() used to build a fresh random.Random(seed) on
        # every call, so each crash through one policy replayed the exact
        # same survival outcome.
        policy = CrashPolicy(survive_probability=0.5, seed=42)
        outcomes = [self._crash_once(policy) for _ in range(10)]
        assert len(set(outcomes)) > 1

    def test_same_seed_replays_identically(self):
        def run():
            policy = CrashPolicy(survive_probability=0.5, seed=9)
            return [self._crash_once(policy) for _ in range(6)]

        assert run() == run()

    def test_with_seed_copies_start_fresh_streams(self):
        base = CrashPolicy(survive_probability=0.5)
        first = [self._crash_once(base.with_seed(5)) for _ in range(1)]
        # A second with_seed copy must replay the first copy's stream from
        # the start, not continue it.
        again = [self._crash_once(base.with_seed(5)) for _ in range(1)]
        assert first == again


class _Recorder:
    def __init__(self):
        self.events = []

    def on_store(self, addr, size, nontemporal):
        self.events.append(("store", addr, size, nontemporal))

    def on_clwb(self, addr, size):
        self.events.append(("clwb", addr, size))

    def on_fence(self):
        self.events.append(("fence",))


class TestObserverChaining:
    def test_two_observers_both_see_every_event(self, buf, domain):
        # Regression: the domain used to hold a single observer slot, so a
        # second attach (e.g. crashmc's tracer on top of a RAS hook)
        # silently clobbered the first.
        a, b = _Recorder(), _Recorder()
        domain.add_observer(a)
        domain.add_observer(b)
        domain.note_store(0, 8, nontemporal=False)
        domain.clwb(0, 8)
        domain.sfence()
        assert a.events == b.events
        assert [e[0] for e in a.events] == ["store", "clwb", "fence"]

    def test_double_attach_same_instance_raises(self, domain):
        a = _Recorder()
        domain.add_observer(a)
        with pytest.raises(ValueError, match="already attached"):
            domain.add_observer(a)

    def test_remove_specific_observer(self, domain):
        a, b = _Recorder(), _Recorder()
        domain.add_observer(a)
        domain.add_observer(b)
        domain.remove_observer(a)
        domain.note_store(0, 8, nontemporal=False)
        assert a.events == []
        assert len(b.events) == 1
        with pytest.raises(ValueError, match="not attached"):
            domain.remove_observer(a)

    def test_device_level_chaining(self):
        # crashmc --ras style: a persistence tracer attached while another
        # hook is already watching the same device.
        from repro.pmem.device import PersistentMemory
        from repro.pmem.timing import SimClock

        pm = PersistentMemory(1 << 20, SimClock())
        a, b = _Recorder(), _Recorder()
        pm.attach_observer(a)
        pm.attach_observer(b)
        pm.store(0, b"x" * 128, nontemporal=True)
        pm.sfence()
        assert a.events == b.events and len(a.events) == 2
        pm.detach_observer(a)
        pm.store(0, b"y" * 64, nontemporal=True)
        assert len(b.events) == 3 and len(a.events) == 2
        pm.detach_observer()
        pm.store(0, b"z" * 64, nontemporal=True)
        assert len(b.events) == 3
