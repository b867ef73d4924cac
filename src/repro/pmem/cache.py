"""CPU-cache persistence model for simulated PM.

Persistent memory is reached through the CPU cache hierarchy.  A temporal
store is *volatile* until the line is written back (``clwb``) and a store
fence (``sfence``) confirms the writeback reached the ADR persistence domain.
Non-temporal stores (``movnt``) bypass the cache but still require a fence
before they are guaranteed durable.

This module tracks which 64-byte cache lines carry updates that a crash
would lose, and can roll the backing buffer back to its durable image.
Crash policies model the real-world uncertainty that an unflushed line may
still have been evicted (and thus persisted) before the crash, and that a
line's durability is only atomic at 8-byte granularity (torn lines).

The bookkeeping is on the simulator's hottest path (every store on every
device goes through :meth:`PersistenceDomain.note_store`), so it is kept by
the range, not by the line: a sorted list of disjoint *runs* of dirty lines,
each with one durable-image blob, the number of the store that first
dirtied it, and a flushed-but-unfenced flag.  A store, flush or fence costs
a bisect and a few list operations however many lines it covers; the 2 MiB
operation-log re-zero is one run.  A run's blob is the ``bytes`` of
:meth:`CowBuffer.read`, except for a run that starts on a 64 KiB segment
boundary and spans segments: that one is a frozen :class:`CowBuffer`
(:meth:`CowBuffer.freeze`), which slices the same way but holds no zero
segment, so capturing the re-zero's pre-image costs what the log holds,
not 2 MiB.  A crash that draws from its policy's RNG
visits the lines in the order they were first dirtied, ``(seq, line)``.
The per-line original lives in the test suite
(``tests/reference_impls.py``), whose property and wall-clock bench tests
run both and assert identical results.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from itertools import chain
from operator import itemgetter
from typing import Iterable, List, Optional, Protocol, Tuple, Union

from .constants import CACHELINE_SIZE
from .cow import SEGMENT_MASK, SEGMENT_SIZE, CowBuffer


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


#: A run of dirty lines, ``(start, end, seq, base, blob, pending)``: lines
#: ``[start, end)`` were first dirtied by store number ``seq``; the durable
#: image of line ``l`` is ``blob[(l - base) * 64 : (l - base + 1) * 64]``
#: (``bytes``, or a frozen ``CowBuffer`` for a run from a segment
#: boundary across segments);
#: ``pending`` means flushed (``clwb``/``movnt``) but not yet fenced.
Run = Tuple[int, int, int, int, Union[bytes, CowBuffer], bool]

#: Sort key putting runs in first-dirtied order, ``(seq, start)``.
_FIRST_DIRTIED = itemgetter(2, 0)


def _flip(run: Run, first: int, end: int, out: List[Run]) -> int:
    """Append ``run`` to ``out`` with the pending flag of its lines inside
    ``[first, end)`` inverted, split at the range's edges.  The pieces keep
    the run's ``seq`` and blob.  Returns the number of lines flipped."""
    start, stop, seq, base, blob, pending = run
    lo = first if first > start else start
    hi = end if end < stop else stop
    if start < lo:
        out.append((start, lo, seq, base, blob, pending))
    out.append((lo, hi, seq, base, blob, not pending))
    if hi < stop:
        out.append((hi, stop, seq, base, blob, pending))
    return hi - lo


class PersistenceDomain:
    """Tracks the durable image of a byte buffer at cache-line granularity.

    The owner holds the *current* (volatile) view in ``buf``; this class
    remembers the durable pre-image of every line whose volatile content has
    diverged, and which of those lines have been flushed but not fenced, as
    disjoint runs sorted by first line (see :data:`Run`).  The runs of one
    store share its ``seq``, and a run split by a later flush or store keeps
    it, so sorting runs by ``(seq, start)`` lists the lines in the order
    they were first dirtied.
    """

    def __init__(self, buf: CowBuffer) -> None:
        self.buf = buf
        self._runs: List[Run] = []
        #: number of the latest store
        self._seq = 0
        #: lines covered by runs, and by pending runs
        self._dirty = 0
        self._pending = 0
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

    def _overlapping(self, first: int, end: int) -> Tuple[int, int]:
        """``(lo, hi)`` such that ``_runs[lo:hi]`` are the runs that share a
        line with ``[first, end)``."""
        runs = self._runs
        i = bisect_left(runs, (first + 1,))
        lo = i - 1 if i and runs[i - 1][1] > first else i
        return lo, bisect_left(runs, (end,), lo)

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
        end = (addr + size - 1) // CACHELINE_SIZE + 1
        runs = self._runs
        self._seq = seq = self._seq + 1
        if not runs or runs[-1][1] <= first:
            # Past every tracked line: the first store after a fence that
            # drained every run, or the next block of an append.  Every new
            # run captures its pre-image as here: frozen only when it
            # starts on a segment boundary and spans segments.
            start, stop = first * CACHELINE_SIZE, end * CACHELINE_SIZE
            blob = (self.buf.read(start, stop)
                    if start & SEGMENT_MASK or stop - start <= SEGMENT_SIZE
                    else self.buf.freeze(start, stop))
            runs.append((first, end, seq, first, blob, nontemporal))
            self._dirty += end - first
            if nontemporal:
                self._pending += end - first
            return
        if end - first == 1:
            # One line: oplog entries, journal records and inode fields
            # dominate metadata-heavy workloads, mostly right after a fence
            # has emptied the domain.
            i = bisect_left(runs, (end,))
            if i and runs[i - 1][1] > first:
                run = runs[i - 1]
                if run[5] != nontemporal:
                    pieces: List[Run] = []
                    _flip(run, first, end, pieces)
                    runs[i - 1:i] = pieces
                    self._pending += 1 if nontemporal else -1
                return
            start = first * CACHELINE_SIZE
            runs.insert(i, (first, end, seq, first,
                            self.buf.read(start, start + CACHELINE_SIZE),
                            nontemporal))
            self._dirty += 1
            if nontemporal:
                self._pending += 1
            return
        # ``_overlapping``, inline.
        i = bisect_left(runs, (first + 1,))
        lo = i - 1 if i and runs[i - 1][1] > first else i
        hi = bisect_left(runs, (end,), lo)
        buf = self.buf
        if lo == hi:
            # Nothing in the range is tracked yet: one run, its durable
            # image captured in one piece.
            start, stop = first * CACHELINE_SIZE, end * CACHELINE_SIZE
            blob = (buf.read(start, stop)
                    if start & SEGMENT_MASK or stop - start <= SEGMENT_SIZE
                    else buf.freeze(start, stop))
            runs.insert(lo, (first, end, seq, first, blob, nontemporal))
            self._dirty += end - first
            if nontemporal:
                self._pending += end - first
            return
        pos = first
        for k in range(lo, hi):
            run = runs[k]
            if run[0] > pos or run[5] != nontemporal:
                break
            pos = run[1]
        else:
            if pos >= end:
                # Runs carrying the store's flag already cover the range
                # (a data store over its own zero fill): nothing changes.
                return
        # Tracked lines keep their preimage and seq and take the store's
        # flag; each untracked gap becomes a run of this store.
        out: List[Run] = []
        pos = first
        added = flipped = 0
        for run in runs[lo:hi]:
            if pos < run[0]:
                start, stop = pos * CACHELINE_SIZE, run[0] * CACHELINE_SIZE
                blob = (buf.read(start, stop)
                        if start & SEGMENT_MASK or stop - start <= SEGMENT_SIZE
                        else buf.freeze(start, stop))
                out.append((pos, run[0], seq, pos, blob, nontemporal))
                added += run[0] - pos
            if run[5] == nontemporal:
                out.append(run)
            else:
                flipped += _flip(run, first, end, out)
            pos = run[1]
        if pos < end:
            start, stop = pos * CACHELINE_SIZE, end * CACHELINE_SIZE
            blob = (buf.read(start, stop)
                    if start & SEGMENT_MASK or stop - start <= SEGMENT_SIZE
                    else buf.freeze(start, stop))
            out.append((pos, end, seq, pos, blob, nontemporal))
            added += end - pos
        runs[lo:hi] = out
        self._dirty += added
        if nontemporal:
            self._pending += added + flipped
        else:
            # A temporal store to a line that was already flushed-but-not-
            # fenced re-dirties it.
            self._pending -= flipped

    def clwb(self, addr: int, size: int) -> int:
        """Flush dirty lines covering the range; returns lines flushed."""
        for obs in self._observers:
            obs.on_clwb(addr, size)
        if not self._runs:
            return 0
        first = addr // CACHELINE_SIZE
        end = (addr + size - 1) // CACHELINE_SIZE + 1
        if end <= first:
            return 0
        lo, hi = self._overlapping(first, end)
        out: List[Run] = []
        flushed = 0
        for run in self._runs[lo:hi]:
            if run[5]:
                out.append(run)
            else:
                flushed += _flip(run, first, end, out)
        if flushed:
            self._runs[lo:hi] = out
            self._pending += flushed
        return flushed

    def sfence(self) -> int:
        """Fence: everything flushed becomes durable.  Returns lines drained."""
        for obs in self._observers:
            obs.on_fence()
        drained = self._pending
        if drained:
            if drained == self._dirty:
                self._runs.clear()
                self._dirty = self._pending = 0
            else:
                self._runs = [run for run in self._runs if not run[5]]
                self._dirty -= drained
                self._pending = 0
        return drained

    # -- forking -------------------------------------------------------------

    def fork(self, buf) -> "PersistenceDomain":
        """An independent copy of the domain state over ``buf``.

        Runs are immutable tuples, so forking is one list copy regardless
        of device size.  Observers are deliberately not inherited — a
        forked machine is explored detached, so its recovery traffic never
        reaches the crash explorer's harvest observer.
        """
        child = PersistenceDomain(buf)
        child._runs = list(self._runs)
        child._seq = self._seq
        child._dirty = self._dirty
        child._pending = self._pending
        return child

    # -- introspection -------------------------------------------------------

    @property
    def dirty_line_count(self) -> int:
        return self._dirty

    @property
    def pending_line_count(self) -> int:
        return self._pending

    def dirty_lines(self) -> Iterable[int]:
        """Dirty line indexes, in the order they were first dirtied."""
        return chain.from_iterable(
            range(run[0], run[1])
            for run in sorted(self._runs, key=_FIRST_DIRTIED))

    def is_durable(self, addr: int, size: int) -> bool:
        """True if the whole range is identical in the durable image."""
        first = addr // CACHELINE_SIZE
        end = (addr + size - 1) // CACHELINE_SIZE + 1
        if end <= first:
            return True
        lo, hi = self._overlapping(first, end)
        return lo == hi

    # -- crash ----------------------------------------------------------------

    def _roll_back(self, start: int, end: int, base: int,
                   blob: Union[bytes, CowBuffer]) -> None:
        """Write lines ``[start, end)`` of a run back to their durable image."""
        self.buf.write(start * CACHELINE_SIZE,
                       blob[(start - base) * CACHELINE_SIZE
                            : (end - base) * CACHELINE_SIZE])

    def _forget(self) -> None:
        self._runs = []
        self._dirty = self._pending = 0

    def crash(self, policy: Optional[CrashPolicy] = None) -> Tuple[int, int]:
        """Apply a crash: roll un-persisted lines back to their durable image.

        The policy's RNG is drawn once per line whose survive probability is
        positive, in first-dirtied order; every other line rolls back with
        its run, so the default policy draws nothing.  Returns
        ``(lines_lost, lines_survived)``.
        """
        policy = policy or CrashPolicy()
        rng = policy.rng()
        p_dirty = policy.survive_probability
        p_pending = policy.pending_survive_probability
        runs = self._runs
        if p_dirty > 0.0 or p_pending > 0.0:
            runs = sorted(runs, key=_FIRST_DIRTIED)
        buf = self.buf
        lost = survived = 0
        for start, end, _, base, blob, pending in runs:
            p = p_pending if pending else p_dirty
            if not p > 0.0:
                self._roll_back(start, end, base, blob)
                lost += end - start
                continue
            for line in range(start, end):
                addr = line * CACHELINE_SIZE
                off = (line - base) * CACHELINE_SIZE
                if rng.random() < p:
                    if policy.tear_lines:
                        # Only a random subset of the line's 8-byte words
                        # persist.
                        for word in range(0, CACHELINE_SIZE, 8):
                            if rng.random() < 0.5:
                                buf.write(addr + word,
                                          blob[off + word : off + word + 8])
                    survived += 1
                else:
                    buf.write(addr, blob[off : off + CACHELINE_SIZE])
                    lost += 1
        self._forget()
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
        keep = sorted(set(survivors))
        survived = 0
        for start, end, _, base, blob, _ in self._runs:
            pos = start
            for line in keep[bisect_left(keep, start):bisect_left(keep, end)]:
                if pos < line:
                    self._roll_back(pos, line, base, blob)
                pos = line + 1
                survived += 1
            if pos < end:
                self._roll_back(pos, end, base, blob)
        lost = self._dirty - survived
        self._forget()
        return lost, survived
