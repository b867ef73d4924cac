"""Persistence tracing and crash triggering against a bare PM device."""

import pytest

from repro.crashmc.trace import CrashTriggered, PersistenceTracer
from repro.pmem.device import PersistentMemory
from repro.pmem.timing import SimClock
from tests.crashmc.replay import CrashTrigger

PM = 4 * 1024 * 1024


@pytest.fixture
def pm():
    return PersistentMemory(PM, SimClock())


class TestPersistenceTracer:
    def test_counts_stores_and_fences(self, pm):
        tracer = PersistenceTracer()
        pm.attach_observer(tracer)
        pm.store(0, b"a" * 64)
        pm.store(64, b"b" * 64)
        pm.sfence()
        pm.store(128, b"c" * 64)
        pm.sfence()
        pm.detach_observer()
        t = tracer.trace
        assert t.stores == 3
        assert t.fences == 2
        # Per-epoch store counts, plus the open (post-final-fence) epoch.
        assert t.stores_per_epoch == [2, 1, 0]

    def test_clwb_counted(self, pm):
        tracer = PersistenceTracer()
        pm.attach_observer(tracer)
        pm.persist(0, b"x" * 64)  # store + clwb + fence
        pm.detach_observer()
        assert tracer.trace.clwbs >= 1
        assert tracer.trace.fences == 1


class TestCrashTrigger:
    def test_requires_exactly_one_target(self):
        with pytest.raises(ValueError):
            CrashTrigger()
        with pytest.raises(ValueError):
            CrashTrigger(fence_index=1, epoch=0)

    def test_fence_trigger_fires_before_drain(self, pm):
        """The crash state at fence k must not include fence k's drain."""
        pm.persist(0, b"old" + b"\x00" * 61)
        trigger = CrashTrigger(fence_index=1)
        pm.attach_observer(trigger)
        pm.store(0, b"new" + b"\x00" * 61)
        pm.clwb(0, 64)
        with pytest.raises(CrashTriggered):
            pm.sfence()
        pm.detach_observer()
        assert trigger.fired
        pm.crash()  # default policy: drop everything unfenced
        assert pm.peek(0, 3) == b"old"

    def test_store_trigger_fires_before_the_store(self, pm):
        trigger = CrashTrigger(epoch=1, store_index=1)
        pm.attach_observer(trigger)
        pm.store(0, b"a" * 64)  # epoch 0 store 0
        pm.sfence()  # -> epoch 1
        pm.store(64, b"b" * 64)  # epoch 1 store 0
        with pytest.raises(CrashTriggered):
            pm.store(128, b"c" * 64)  # epoch 1 store 1: fires first
        pm.detach_observer()
        # The triggering store must not have mutated the buffer.
        assert pm.peek(128, 64) == b"\x00" * 64

    def test_past_the_end_never_fires(self, pm):
        trigger = CrashTrigger(fence_index=99)
        pm.attach_observer(trigger)
        pm.store(0, b"a" * 64)
        pm.sfence()
        pm.detach_observer()
        assert not trigger.fired
