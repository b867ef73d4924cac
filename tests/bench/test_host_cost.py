"""A deterministic host-cost budget for the append path.

An append-with-fsync loop (the perfbench ``append-fsync`` workload in
small: 256 appends of 3.5-4.5 KiB, an fsync every 64) runs on ext4dax and
on splitfs-strict.  Each run counts the Python calls (``sys.setprofile``)
and the bytecodes (``sys.settrace`` with ``f_trace_opcodes``) per syscall,
set-up excluded, and must stay within 5% above the counts in
:data:`BUDGET`.  Unlike host timings, which drift by tens of percent on a
shared machine, the counts repeat exactly, so a change that puts calls
back on the write path fails here.  Bytecode counts belong to one
interpreter version: they were measured on CPython 3.11.
"""

import random
import sys

import pytest

from repro.factory import make_filesystem
from repro.posix import flags as F

APPENDS = 256
FSYNC_EVERY = 64

#: (Python calls, bytecodes) per syscall, as counted on this code.  Before
#: the append path was trimmed the counts were (85.59, 2517.8) on ext4dax
#: and (85.20, 2280.1) on splitfs-strict.
BUDGET = {
    "ext4dax": (42.08, 1863.7),
    "splitfs-strict": (52.46, 1780.2),
}
SLACK = 1.05

pytestmark = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="bytecode counts were measured on CPython 3.11")


def _chunks():
    rng = random.Random(1)
    return [rng.randbytes(rng.randint(3584, 4608)) for _ in range(APPENDS)]


def _opened(system):
    _, fs = make_filesystem(system)
    return fs, fs.open("/log", F.O_CREAT | F.O_RDWR)


def _appends(fs, fd, chunks):
    """The counted loop; returns the number of syscalls it made."""
    syscalls = 0
    for i, chunk in enumerate(chunks, 1):
        fs.write(fd, chunk)
        syscalls += 1
        if i % FSYNC_EVERY == 0:
            fs.fsync(fd)
            syscalls += 1
    return syscalls


def count_calls(system, chunks):
    """Python calls per syscall (C builtins not counted)."""
    fs, fd = _opened(system)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    saved = sys.getprofile()
    sys.setprofile(profile)
    try:
        syscalls = _appends(fs, fd, chunks)
    finally:
        sys.setprofile(saved)
    return calls / syscalls


def count_bytecodes(system, chunks):
    """Bytecodes executed per syscall."""
    fs, fd = _opened(system)
    ops = 0

    def local(frame, event, arg):
        nonlocal ops
        if event == "opcode":
            ops += 1
        return local

    def trace(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    saved = sys.gettrace()
    sys.settrace(trace)
    try:
        syscalls = _appends(fs, fd, chunks)
    finally:
        sys.settrace(saved)
    return ops / syscalls


@pytest.mark.parametrize("system", sorted(BUDGET))
def test_append_syscalls_stay_within_budget(system):
    chunks = _chunks()
    _appends(*_opened(system), chunks)  # lazy imports and caches first
    calls, bytecodes = count_calls(system, chunks), \
        count_bytecodes(system, chunks)
    want_calls, want_bytecodes = BUDGET[system]
    assert calls <= want_calls * SLACK, (calls, want_calls)
    assert bytecodes <= want_bytecodes * SLACK, (bytecodes, want_bytecodes)
