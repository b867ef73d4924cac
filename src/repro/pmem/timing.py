"""Simulated-time accounting.

All performance results in this reproduction are *simulated*: operations
charge nanoseconds to a :class:`SimClock`, split into three categories:

``data``
    PM device time spent moving *file data* (the payload of reads, writes,
    and appends).
``meta_io``
    PM device time spent on file-system metadata: journal blocks, operation
    logs, inode/log-tail updates.
``cpu``
    Everything else: kernel traps, path walks, allocation, locking, page
    faults, user-space bookkeeping.

The paper (Section 5.7) defines *software overhead* as the time taken to
service a call minus the time spent actually accessing file data on the
device; with these categories that is simply ``total - data``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, Optional

from ..obs.observer import NULL_OBSERVER


class Category(enum.Enum):
    """What a span of simulated time was spent on."""

    DATA = "data"
    META_IO = "meta_io"
    CPU = "cpu"


# Plain module attributes for the charge path.  On Python 3.11 every
# ``Category.X`` read goes through ``EnumType.__getattr__``, several times
# slower than a global; the hottest functions compare against these.
DATA = Category.DATA
META_IO = Category.META_IO
CPU = Category.CPU


@dataclass
class TimeAccount:
    """A bucket of charged simulated time, split by category."""

    data_ns: float = 0.0
    meta_io_ns: float = 0.0
    cpu_ns: float = 0.0

    def charge(self, ns: float, category: Category) -> None:
        if ns < 0:
            raise ValueError(f"negative charge: {ns}")
        if category is DATA:
            self.data_ns += ns
        elif category is META_IO:
            self.meta_io_ns += ns
        else:
            self.cpu_ns += ns

    @property
    def total_ns(self) -> float:
        return self.data_ns + self.meta_io_ns + self.cpu_ns

    @property
    def software_overhead_ns(self) -> float:
        """Paper Section 5.7: total time minus device time on file data."""
        return self.total_ns - self.data_ns

    def snapshot(self) -> "TimeAccount":
        return TimeAccount(self.data_ns, self.meta_io_ns, self.cpu_ns)

    def delta_since(self, earlier: "TimeAccount") -> "TimeAccount":
        return TimeAccount(
            self.data_ns - earlier.data_ns,
            self.meta_io_ns - earlier.meta_io_ns,
            self.cpu_ns - earlier.cpu_ns,
        )

    def merged_with(self, other: "TimeAccount") -> "TimeAccount":
        return TimeAccount(
            self.data_ns + other.data_ns,
            self.meta_io_ns + other.meta_io_ns,
            self.cpu_ns + other.cpu_ns,
        )

    def as_dict(self) -> Dict[str, float]:
        return {
            "data_ns": self.data_ns,
            "meta_io_ns": self.meta_io_ns,
            "cpu_ns": self.cpu_ns,
            "total_ns": self.total_ns,
            "software_overhead_ns": self.software_overhead_ns,
        }


@dataclass
class SimClock:
    """The simulated clock for one machine.

    The clock is strictly monotonic; charging advances ``now_ns``.  A stack of
    secondary :class:`TimeAccount` scopes lets callers measure the cost of a
    region (e.g. one system call, or one whole workload) without resetting
    global time.
    """

    account: TimeAccount = field(default_factory=TimeAccount)
    _scopes: list = field(default_factory=list)
    #: Observability sink (``repro.obs``).  The NullObserver default keeps
    #: the hook to a single attribute test on the hot path; a bound
    #: ``Observer`` sees every charge for span attribution.
    obs: object = field(default=NULL_OBSERVER, repr=False)

    @property
    def now_ns(self) -> float:
        account = self.account
        return account.data_ns + account.meta_io_ns + account.cpu_ns

    # ``charge`` and ``charge_cpu`` run several times per simulated syscall,
    # so each updates the account inline instead of calling
    # ``TimeAccount.charge``.  The additions stay in one order: the account,
    # then each scope in order, then ``obs.on_charge``.

    def charge(self, ns: float, category: Category = Category.CPU) -> None:
        """Advance simulated time by ``ns`` in the given category."""
        if ns < 0:
            raise ValueError(f"negative charge: {ns}")
        account = self.account
        if category is DATA:
            account.data_ns += ns
        elif category is META_IO:
            account.meta_io_ns += ns
        else:
            account.cpu_ns += ns
        if self._scopes:
            for scope in self._scopes:
                scope.charge(ns, category)
        if self.obs.enabled:
            self.obs.on_charge(ns, category)

    def charge_cpu(self, ns: float) -> None:
        """``charge(ns, CPU)``."""
        if ns < 0:
            raise ValueError(f"negative charge: {ns}")
        self.account.cpu_ns += ns
        if self._scopes:
            for scope in self._scopes:
                scope.charge(ns, CPU)
        if self.obs.enabled:
            self.obs.on_charge(ns, CPU)

    def charge_each(self, ns: float, category: Category, count: int) -> None:
        """``count`` calls of ``charge(ns, category)`` in one.

        Each account still adds ``ns`` once per call, one float addition at
        a time (``count * ns`` would round differently), so every total
        ends bit-identical to the separate calls.
        """
        if count <= 0:
            return
        if ns < 0:
            raise ValueError(f"negative charge: {ns}")
        name = ("data_ns" if category is DATA else
                "meta_io_ns" if category is META_IO else "cpu_ns")
        for account in (self.account, *self._scopes):
            total = getattr(account, name)
            for _ in repeat(None, count):
                total += ns
            setattr(account, name, total)
        obs = self.obs
        if obs.enabled:
            for _ in repeat(None, count):
                obs.on_charge(ns, category)

    def measure(self) -> "MeasureScope":
        """Context manager measuring time charged inside the ``with`` body."""
        return MeasureScope(self)

    def to_background(self, measured: TimeAccount,
                      background: TimeAccount) -> None:
        """Move ``measured`` (what a :meth:`measure` scope saw) from this
        clock's account to ``background``: work a spare hardware thread
        did, off the caller's critical path."""
        account = self.account
        account.data_ns -= measured.data_ns
        account.meta_io_ns -= measured.meta_io_ns
        account.cpu_ns -= measured.cpu_ns
        background.data_ns += measured.data_ns
        background.meta_io_ns += measured.meta_io_ns
        background.cpu_ns += measured.cpu_ns


class MeasureScope:
    """Context manager that accumulates charges made while it is active."""

    def __init__(self, clock: SimClock) -> None:
        self._clock = clock
        self.account = TimeAccount()
        self._active = False

    def __enter__(self) -> TimeAccount:
        self._clock._scopes.append(self.account)
        self._active = True
        return self.account

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        # Remove by identity, not value: TimeAccount is a value-equal
        # dataclass, so list.remove() could pop a *different* nested scope
        # whose charges happen to be equal (e.g. two empty accounts).
        scopes = self._clock._scopes
        for i in range(len(scopes) - 1, -1, -1):
            if scopes[i] is self.account:
                del scopes[i]
                break
        self._active = False


def format_ns(ns: float, precision: Optional[int] = None) -> str:
    """Render a nanosecond quantity with a human-friendly unit.

    ``precision`` is honoured on every branch; when omitted, scaled units
    (s/ms/us) default to 2 decimals and bare nanoseconds to 0.

    >>> format_ns(2_500_000)
    '2.50ms'
    >>> format_ns(2_500_000, precision=0)
    '2ms'
    >>> format_ns(1_234, precision=3)
    '1.234us'
    >>> format_ns(42.6)
    '43ns'
    """
    if ns >= 1e9:
        return f"{ns / 1e9:.{2 if precision is None else precision}f}s"
    if ns >= 1e6:
        return f"{ns / 1e6:.{2 if precision is None else precision}f}ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.{2 if precision is None else precision}f}us"
    return f"{ns:.{0 if precision is None else precision}f}ns"
