"""Simulated persistent-memory substrate: device, persistence domain, costs.

Public surface::

    from repro.pmem import PersistentMemory, SimClock, Category, CrashPolicy
    from repro.pmem import ExtentAllocator, Extent
"""

from . import constants
from .allocator import Extent, ExtentAllocator, OutOfSpaceError
from .cache import CrashPolicy, PersistenceDomain
from .device import DeviceStats, PersistentMemory, PMError
from .timing import Category, MeasureScope, SimClock, TimeAccount, format_ns

__all__ = [
    "constants",
    "Extent",
    "ExtentAllocator",
    "OutOfSpaceError",
    "CrashPolicy",
    "PersistenceDomain",
    "DeviceStats",
    "PersistentMemory",
    "PMError",
    "Category",
    "MeasureScope",
    "SimClock",
    "TimeAccount",
    "format_ns",
]
