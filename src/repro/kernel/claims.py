"""Block ownership for the fsck checkers, kept by the range.

An fsck claims every block an inode's metadata points at and reports each
block outside the data region and each block claimed twice.
:class:`BlockClaims` keeps the claims as a sorted list of disjoint
``(start, end, owner)`` runs, so a claim of an extent costs a bisect and a
splice however long the extent is, and reports what the per-block loop it
replaces would have, in the same order.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Hashable, List, Tuple

#: The ``previous`` owner :meth:`BlockClaims.claim` reports for a block
#: outside the data region.
OUTSIDE = object()


class BlockClaims:
    """The owner of each claimed block of the data region ``[first, end)``,
    which is not empty."""

    def __init__(self, first: int, end: int) -> None:
        self.first = first
        self.end = end
        self._runs: List[Tuple[int, int, Hashable]] = []
        self._blocks = 0

    def __len__(self) -> int:
        """Blocks with an owner."""
        return self._blocks

    def claim(self, start: int, length: int,
              owner: Hashable) -> List[Tuple[int, object]]:
        """Give blocks ``[start, start + length)`` of the region to ``owner``.

        Returns ``(block, previous)`` in block order for each block that is
        outside the region (``previous`` is :data:`OUTSIDE`; the block is not
        recorded) or that already had an owner, whichever it was.
        """
        stop = start + length
        found = [(b, OUTSIDE) for b in range(start, min(stop, self.first))]
        lo, hi = max(start, self.first), min(stop, self.end)
        if lo < hi:
            runs = self._runs
            # runs[i:j] are the runs that share a block with [lo, hi).
            i = bisect_left(runs, (lo + 1,))
            if i and runs[i - 1][1] > lo:
                i -= 1
            j = bisect_left(runs, (hi,), i)
            pieces = []
            for run_start, run_end, prev in runs[i:j]:
                if run_start < lo:
                    pieces.append((run_start, lo, prev))
                cut = range(max(run_start, lo), min(run_end, hi))
                found.extend((b, prev) for b in cut)
                self._blocks -= len(cut)
            pieces.append((lo, hi, owner))
            if j > i and runs[j - 1][1] > hi:
                pieces.append((hi, runs[j - 1][1], runs[j - 1][2]))
            runs[i:j] = pieces
            self._blocks += hi - lo
        found.extend((b, OUTSIDE) for b in range(max(start, self.end), stop))
        return found
