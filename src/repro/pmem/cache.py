"""CPU-cache persistence model for simulated PM.

Persistent memory is reached through the CPU cache hierarchy.  A temporal
store is *volatile* until the line is written back (``clwb``) and a store
fence (``sfence``) confirms the writeback reached the ADR persistence domain.
Non-temporal stores (``movnt``) bypass the cache but still require a fence
before they are guaranteed durable.

This module tracks, per 64-byte cache line, which lines carry updates that a
crash would lose, and can roll the backing buffer back to its durable image.
Crash policies model the real-world uncertainty that an unflushed line may
still have been evicted (and thus persisted) before the crash, and that a
line's durability is only atomic at 8-byte granularity (torn lines).

The line bookkeeping is on the simulator's hottest path (every store on every
device goes through :meth:`PersistenceDomain.note_store`), so multi-line
stores are handled with range arithmetic and bulk container operations
instead of a Python loop per 64-byte line.  The original per-line loops live
in the test suite (``tests/reference_impls.py``), whose property and
wall-clock bench tests run both and assert identical results.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import Dict, Iterable, List, Optional, Protocol, Set, Tuple, Union

from .constants import CACHELINE_SIZE
from .cow import CowBuffer


class DomainObserver(Protocol):
    """Hook interface for persistence-trace recording and crash triggering.

    ``on_store`` fires *before* the store mutates the buffer, ``on_fence``
    fires *before* the fence drains — so an observer that raises leaves the
    domain exactly as it was at that instant (the crash-model checker in
    :mod:`repro.crashmc` relies on this to enumerate intermediate states).
    """

    def on_store(self, addr: int, size: int, nontemporal: bool) -> None: ...

    def on_clwb(self, addr: int, size: int) -> None: ...

    def on_fence(self) -> None: ...


@dataclass
class CrashPolicy:
    """How un-persisted state behaves at a crash.

    ``survive_probability``
        Chance that a dirty (un-fenced) line nevertheless reached the device
        (e.g. it was evicted from cache before the crash).  The deterministic
        default of 0.0 drops everything not explicitly persisted.
    ``pending_survive_probability``
        Chance that a line which was flushed (``clwb``/``movnt``) but not yet
        fenced made it to the persistence domain anyway.  Real hardware makes
        this likely; the conservative default drops them.
    ``tear_lines``
        If true, a surviving line may persist only partially, at 8-byte
        granularity (PM guarantees 8-byte atomic stores, nothing wider).
    ``seed``
        Seed for the policy's private RNG, for reproducible experiments.
    """

    survive_probability: float = 0.0
    pending_survive_probability: float = 0.0
    tear_lines: bool = False
    seed: Optional[int] = None
    # The policy's RNG is created lazily on first use and then *kept*, so
    # repeated crashes through one policy instance advance a single seeded
    # stream instead of replaying identical outcomes.  Excluded from
    # comparison/repr so CrashPolicy keeps value semantics.
    _rng: Optional[random.Random] = field(
        default=None, init=False, repr=False, compare=False
    )

    def rng(self) -> random.Random:
        if self._rng is None:
            self._rng = random.Random(self.seed)
        return self._rng

    def with_seed(self, seed: int) -> "CrashPolicy":
        """A copy of this policy with ``seed`` filled in (if unset).

        :meth:`repro.kernel.machine.Machine.crash` uses this to thread a
        machine-level seed into otherwise-unseeded policies, so every
        probabilistic crash outcome is replayable.  The copy starts a fresh
        RNG stream (``dataclasses.replace`` does not carry ``_rng`` over).
        """
        if self.seed is not None:
            return self
        return replace(self, seed=seed)


class PersistenceDomain:
    """Tracks the durable image of a byte buffer at cache-line granularity.

    The owner holds the *current* (volatile) view in ``buf``; this class
    remembers the durable pre-image of every line whose volatile content has
    diverged, and which of those lines have been flushed but not fenced.
    """

    def __init__(self, buf: CowBuffer) -> None:
        self.buf = buf
        # line index -> durable content of that line.  The value is either
        # the line's 64 bytes directly, or a shared ``(base_line, blob)``
        # segment covering a whole multi-line store: every line of the span
        # references one blob and its preimage is sliced out lazily (only
        # crashes read preimage *values*; the hot path only tests keys).
        self._preimages: Dict[int, Union[bytes, Tuple[int, bytes]]] = {}
        # line indexes flushed (clwb/movnt) but not yet fenced
        self._pending_fence: Set[int] = set()
        # persistence-trace hooks (see DomainObserver), fired in attach order
        self._observers: List[DomainObserver] = []

    # -- observers ----------------------------------------------------------

    def add_observer(self, obs: DomainObserver) -> None:
        """Attach ``obs``; observers chain and all see every event."""
        if any(existing is obs for existing in self._observers):
            raise ValueError("observer is already attached")
        self._observers.append(obs)

    def remove_observer(self, obs: Optional[DomainObserver] = None) -> None:
        """Detach ``obs`` (or every observer when ``obs`` is None)."""
        if obs is None:
            self._observers = []
            return
        for i, existing in enumerate(self._observers):
            if existing is obs:
                del self._observers[i]
                return
        raise ValueError("observer is not attached")

    # -- line bookkeeping ---------------------------------------------------

    def _line_range(self, addr: int, size: int) -> range:
        first = addr // CACHELINE_SIZE
        last = (addr + size - 1) // CACHELINE_SIZE
        return range(first, last + 1)

    def note_store(self, addr: int, size: int, nontemporal: bool) -> None:
        """Record that ``[addr, addr+size)`` is about to be overwritten.

        Must be called *before* the owner mutates ``buf`` so the durable
        pre-image can be captured.
        """
        if size <= 0:
            return
        for obs in self._observers:
            obs.on_store(addr, size, nontemporal)
        first = addr // CACHELINE_SIZE
        last = (addr + size - 1) // CACHELINE_SIZE
        pre = self._preimages
        if first == last:
            # Scalar path: sub-line stores (oplog entries, journal records,
            # inode fields) dominate metadata-heavy workloads.
            if first not in pre:
                start = first * CACHELINE_SIZE
                pre[first] = self.buf.read(start, start + CACHELINE_SIZE)
            if nontemporal:
                self._pending_fence.add(first)
            else:
                self._pending_fence.discard(first)
            return
        lines = range(first, last + 1)
        if not pre or pre.keys().isdisjoint(lines):
            # Fast path: no line in the range is tracked yet.  Capture the
            # whole span's durable image once and let every line share it as
            # a (base_line, blob) segment — no per-line 64-byte copies.
            blob = self.buf.read(first * CACHELINE_SIZE,
                                 (last + 1) * CACHELINE_SIZE)
            pre.update(zip(lines, repeat((first, blob))))
        else:
            buf = self.buf
            for line in lines:
                if line not in pre:
                    start = line * CACHELINE_SIZE
                    pre[line] = buf.read(start, start + CACHELINE_SIZE)
        if nontemporal:
            self._pending_fence.update(lines)
        else:
            # A temporal store to a line that was already flushed-but-not-
            # fenced re-dirties it.
            self._pending_fence.difference_update(lines)

    def clwb(self, addr: int, size: int) -> int:
        """Flush dirty lines covering the range; returns lines flushed."""
        for obs in self._observers:
            obs.on_clwb(addr, size)
        pre = self._preimages
        if not pre:
            return 0
        pending = self._pending_fence
        newly = [
            line
            for line in self._line_range(addr, size)
            if line in pre and line not in pending
        ]
        pending.update(newly)
        return len(newly)

    def sfence(self) -> int:
        """Fence: everything flushed becomes durable.  Returns lines drained."""
        for obs in self._observers:
            obs.on_fence()
        pending = self._pending_fence
        drained = len(pending)
        if drained:
            pre = self._preimages
            if drained == len(pre):
                pre.clear()
            else:
                for line in pending:
                    pre.pop(line, None)
            pending.clear()
        return drained

    # -- forking -------------------------------------------------------------

    def fork(self, buf) -> "PersistenceDomain":
        """An independent copy of the domain state over ``buf``.

        Preimage values are immutable (``bytes`` or shared segment tuples),
        so the line maps are shared structurally: forking is two container
        copies regardless of device size.  Observers are deliberately not
        inherited — a forked machine is explored detached, so its recovery
        traffic never reaches the crash explorer's harvest observer.
        """
        child = PersistenceDomain(buf)
        child._preimages = dict(self._preimages)
        child._pending_fence = set(self._pending_fence)
        return child

    # -- introspection -------------------------------------------------------

    @property
    def dirty_line_count(self) -> int:
        return len(self._preimages)

    @property
    def pending_line_count(self) -> int:
        return len(self._pending_fence)

    def dirty_lines(self) -> Iterable[int]:
        return self._preimages.keys()

    def is_durable(self, addr: int, size: int) -> bool:
        """True if the whole range is identical in the durable image."""
        return self._preimages.keys().isdisjoint(self._line_range(addr, size))

    # -- crash ----------------------------------------------------------------

    def crash(self, policy: Optional[CrashPolicy] = None) -> Tuple[int, int]:
        """Apply a crash: roll un-persisted lines back to their durable image.

        Returns ``(lines_lost, lines_survived)``.
        """
        policy = policy or CrashPolicy()
        rng = policy.rng()
        buf = self.buf
        lost = survived = 0
        for line, preimage in self._preimages.items():
            if line in self._pending_fence:
                p = policy.pending_survive_probability
            else:
                p = policy.survive_probability
            start = line * CACHELINE_SIZE
            if type(preimage) is not bytes:
                # Shared segment: slice this line's preimage out of the blob.
                seg_base, blob = preimage
                off = (line - seg_base) * CACHELINE_SIZE
                preimage = blob[off : off + CACHELINE_SIZE]
            if p > 0.0 and rng.random() < p:
                if policy.tear_lines:
                    # Only a random subset of the line's 8-byte words persist.
                    for word in range(CACHELINE_SIZE // 8):
                        if rng.random() < 0.5:
                            buf.write(start + word * 8,
                                      preimage[word * 8 : word * 8 + 8])
                survived += 1
            else:
                buf.write(start, preimage)
                lost += 1
        self._preimages.clear()
        self._pending_fence.clear()
        return lost, survived

    def crash_with_survivors(self, survivors) -> Tuple[int, int]:
        """Deterministic crash: exactly ``survivors`` (line indexes) keep
        their volatile content; every other un-persisted line rolls back.

        This is the primitive behind systematic intra-epoch *reordering*
        exploration: instead of sampling eviction luck through a seeded
        :class:`CrashPolicy`, the explorer enumerates chosen subsets of the
        unfenced lines and crashes each one exactly.  Returns
        ``(lines_lost, lines_survived)``.
        """
        lost = survived = 0
        buf = self.buf
        for line, preimage in self._preimages.items():
            if line in survivors:
                survived += 1
                continue
            if type(preimage) is not bytes:
                seg_base, blob = preimage
                off = (line - seg_base) * CACHELINE_SIZE
                preimage = blob[off : off + CACHELINE_SIZE]
            buf.write(line * CACHELINE_SIZE, preimage)
            lost += 1
        self._preimages.clear()
        self._pending_fence.clear()
        return lost, survived
