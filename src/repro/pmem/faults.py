"""Pluggable fault injection for the simulated PM stack.

One :class:`FaultInjector` hangs off every :class:`~repro.kernel.machine.Machine`
and is consulted by the layers below the POSIX boundary:

* :class:`~repro.pmem.device.PersistentMemory` checks poisoned address ranges
  on every ``load`` and raises :class:`MediaError` (the EIO path — an Optane
  media error surfaces to the kernel as a machine check on load);
* :class:`~repro.pmem.allocator.ExtentAllocator` asks before serving an
  allocation, so ENOSPC can be forced at the Nth allocation mid-workload;
* tests and the crash-model checker use :meth:`tear_line` to durably corrupt
  a cache line (torn operation-log slots, bit-rotted metadata).

Every fault a file system lets escape its public API as something other than
the matching :class:`~repro.posix.errors.FSError` errno is a robustness bug;
``tests/crashmc/test_faults.py`` enforces this for all eight FS kinds.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..obs.metrics import counter_field, reset_counter_fields
from ..posix.errors import NoSpaceFSError
from .device import PMError, PersistentMemory


class MediaError(PMError):
    """An uncorrectable media error on a PM load (the device-level EIO)."""


@dataclass
class FaultInjector:
    """Machine-wide fault plan; inert until armed.

    ``poison(addr, size)`` arms media read errors over a byte range;
    ``poison_rate(p, seed, region)`` scatters seeded-random poisoned cache
    lines over a region (reproducible latent-error streams for scrubber and
    soak tests); ``fail_alloc_after(n)`` makes the (n+1)-th allocator request
    fail with an ENOSPC condition (one-shot, then disarms);
    ``fail_alloc_every(n)`` fails every n-th allocation (periodic ENOSPC for
    degraded-mode soaks).  Counters record how many faults actually fired so
    tests can assert the path was exercised; ``reset_counters()`` zeroes them
    (and ``clear()`` now does too — replays must not inherit stale counts).

    A store over a poisoned range clears the poison for the overwritten
    bytes, modelling the DIMM's internal remap-on-write of bad lines.
    """

    #: Poisoned ``(start, end)`` byte ranges, sorted.  Ranges are never
    #: merged: overlapping and duplicate entries stay as armed, because the
    #: RAS layer repairs, and charges, once per entry.
    poisoned: List[Tuple[int, int]] = field(default_factory=list, init=False)
    alloc_countdown: Optional[int] = None
    alloc_every: Optional[int] = None
    media_faults_fired: int = counter_field()
    alloc_faults_fired: int = counter_field()
    poison_cleared_by_write: int = counter_field()
    _alloc_seen: int = counter_field()
    #: An upper bound on the length of any entry of ``poisoned``, so a
    #: query need only look at the entries starting less than that far
    #: before it.
    _longest: int = field(default=0, init=False, repr=False, compare=False)

    # -- arming --------------------------------------------------------------

    def poison(self, addr: int, size: int) -> None:
        """Mark ``[addr, addr+size)`` as returning media errors on load."""
        insort(self.poisoned, (addr, addr + size))
        if size > self._longest:
            self._longest = size

    def poison_rate(self, p: float, seed: int,
                    region: Tuple[int, int],
                    granularity: int = 64) -> int:
        """Poison each ``granularity``-byte line of ``region`` with
        probability ``p``, driven by ``seed``.

        Deterministic in ``(p, seed, region, granularity)`` and independent
        of load order, so scrubber/soak tests get reproducible random error
        streams.  Returns the number of lines poisoned.
        """
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must be a probability")
        rng = random.Random(seed)
        start, end = region
        count = 0
        for addr in range(start, end, granularity):
            if rng.random() < p:
                self.poison(addr, min(granularity, end - addr))
                count += 1
        return count

    def fail_alloc_after(self, n: int) -> None:
        """Let ``n`` more allocations succeed, then fail the next one."""
        self.alloc_countdown = n

    def fail_alloc_every(self, n: int) -> None:
        """Fail every ``n``-th allocation until cleared (periodic ENOSPC)."""
        if n <= 0:
            raise ValueError("n must be positive")
        self.alloc_every = n

    def fork(self) -> "FaultInjector":
        """An independent copy of the armed plan and fired-fault counters
        (machine forking: faults injected into a forked machine must not
        leak back into the parent's plan)."""
        child = FaultInjector(
            alloc_countdown=self.alloc_countdown,
            alloc_every=self.alloc_every,
        )
        child.poisoned = list(self.poisoned)
        child._longest = self._longest
        child.media_faults_fired = self.media_faults_fired
        child.alloc_faults_fired = self.alloc_faults_fired
        child.poison_cleared_by_write = self.poison_cleared_by_write
        child._alloc_seen = self._alloc_seen
        return child

    def reset_counters(self) -> None:
        """Zero the fired-fault counters (between crashmc replay states).

        Delegates to the metrics layer's metadata-driven reset: every field
        declared with ``counter_field`` is rewound, so this can't drift from
        the field list the way a hand-maintained zeroing block could.
        """
        reset_counter_fields(self)

    def clear(self) -> None:
        self.poisoned.clear()
        self._longest = 0
        self.alloc_countdown = None
        self.alloc_every = None
        self.reset_counters()

    @property
    def armed(self) -> bool:
        return (bool(self.poisoned) or self.alloc_countdown is not None
                or self.alloc_every is not None)

    # -- queries (used by the RAS layer) -------------------------------------

    def _window(self, addr: int, size: int) -> Tuple[int, int]:
        """``(i, j)`` such that every entry of ``poisoned`` that overlaps
        ``[addr, addr+size)`` lies in ``poisoned[i:j]``: its start is in
        ``(addr - longest, addr + size)``."""
        poisoned = self.poisoned
        j = bisect_left(poisoned, (addr + size,))
        return bisect_left(poisoned, (addr - self._longest + 1,), 0, j), j

    def poisoned_overlaps(self, addr: int, size: int) -> List[Tuple[int, int]]:
        """Poisoned sub-ranges of ``[addr, addr+size)``, clamped and sorted."""
        i, j = self._window(addr, size)
        out = []
        for start, end in self.poisoned[i:j]:
            s, e = max(addr, start), min(addr + size, end)
            if s < e:
                out.append((s, e))
        out.sort()
        return out

    def is_poisoned(self, addr: int, size: int) -> bool:
        i, j = self._window(addr, size)
        return any(addr < end for _, end in self.poisoned[i:j])

    def unpoison(self, addr: int, size: int) -> None:
        """Clear poison over ``[addr, addr+size)`` (repair / remap)."""
        lo, hi = addr, addr + size
        i, j = self._window(addr, size)
        poisoned = self.poisoned
        kept: List[Tuple[int, int]] = []
        pieces: List[Tuple[int, int]] = []
        for start, end in poisoned[i:j]:
            if end <= lo or start >= hi:
                kept.append((start, end))
                continue
            if start < lo:
                pieces.append((start, lo))
            if end > hi:
                pieces.append((hi, end))
        if len(kept) == j - i:
            return
        poisoned[i:j] = kept
        for piece in pieces:
            insort(poisoned, piece)

    # -- hooks (called by device / allocator) --------------------------------

    def check_load(self, addr: int, size: int) -> None:
        if self.poisoned and self.is_poisoned(addr, size):
            self.media_faults_fired += 1
            raise MediaError(
                f"uncorrectable media error reading [{addr}, {addr + size})"
            )

    def on_store(self, addr: int, size: int) -> None:
        """A store remaps poisoned lines it fully overwrites (device ECC
        re-established on write, like a real DIMM's internal spare remap)."""
        if not self.poisoned or not self.is_poisoned(addr, size):
            return
        self.unpoison(addr, size)
        self.poison_cleared_by_write += 1

    def on_alloc(self) -> None:
        if self.alloc_every is not None:
            self._alloc_seen += 1
            if self._alloc_seen % self.alloc_every == 0:
                self.alloc_faults_fired += 1
                raise NoSpaceFSError("injected periodic allocation failure")
        if self.alloc_countdown is None:
            return
        if self.alloc_countdown <= 0:
            self.alloc_countdown = None  # one-shot
            self.alloc_faults_fired += 1
            raise NoSpaceFSError("injected allocation failure")
        self.alloc_countdown -= 1

    # -- direct corruption ---------------------------------------------------

    def tear_line(self, pm: PersistentMemory, addr: int,
                  pattern: bytes = b"\xde\xad\xbe\xef\xde\xad\xbe\xef",
                  words: Tuple[int, ...] = (1, 3, 5)) -> None:
        """Durably corrupt selected 8-byte words of the line holding ``addr``.

        Models a torn line that partially persisted: some words carry the new
        (garbage) value, the rest keep theirs.  Used to forge torn
        operation-log slots and exercise checksum-rejection paths.
        """
        line_start = addr - addr % 64
        for word in words:
            pm.poke(line_start + word * 8, pattern[:8])
