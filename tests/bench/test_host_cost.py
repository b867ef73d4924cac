"""Deterministic host-cost budgets: the append path and its instrumentation.

An append-with-fsync loop (the perfbench ``append-fsync`` workload in
small: 256 appends of 3.5-4.5 KiB, an fsync every 64) runs on ext4dax and
on splitfs-strict.  Each run counts the Python calls (``sys.setprofile``)
and the bytecodes (``sys.settrace`` with ``f_trace_opcodes``) per syscall,
set-up excluded, and must stay within 5% above the counts in
:data:`BUDGET`.  Unlike host timings, which drift by tens of percent on a
shared machine, the counts repeat exactly, so a change that puts calls
back on the write path fails here.  Bytecode counts belong to one
interpreter version: they were measured on CPython 3.11.

A crash state's remount is counted the same way: over a small pruned
sweep on splitfs-strict, the calls and bytecodes inside each
``crashmc.explorer.remount`` (ext4 mount with jbd2 recovery, the
operation-log scan, replay and re-zero, and fsck), forks, workload runs
and oracles excluded, must stay within 5% above :data:`REMOUNT_BUDGET`.

The same counts bound what the instrumentation costs the host:

* the disabled observer hook, the ``obs.enabled`` test at the end of
  ``SimClock.charge`` and ``charge_cpu`` that every untraced run pays: an
  append syscall may execute at most :data:`HOOK_BUDGET` times the
  bytecodes it does with the hook stripped
  (``tests/reference_impls.stripped_observer_hook``);
* serve telemetry (``ServeConfig.slo``): on :data:`SERVE_CONFIG` the
  bytecodes that telemetry adds to the serve loop may grow at most 5%
  above :data:`TELEMETRY_EXTRA`.
"""

import dataclasses
import random
import sys

import pytest

from repro.crashmc import explorer as crash_explorer
from repro.crashmc.workload import generate_workload
from repro.factory import make_filesystem
from repro.posix import flags as F
from repro.serve.engine import ServeConfig, ServeEngine
from tests.reference_impls import stripped_observer_hook

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

#: (Python calls, bytecodes) per remount of a crash state of
#: :data:`REMOUNT_SWEEP` (24 states), as counted on this code.  Before the
#: recovery scans skipped zero segments, the counts were (1315.5,
#: 146,054.4).  About a quarter of the bytecodes left are ``charge_each``
#: adding one float per slot and page loaded.
REMOUNT_BUDGET = (1098.9, 70295.5)
#: The sweep: perfbench crash-sweep's tiny op sequence (pruned, two
#: intra-epoch states).
REMOUNT_SWEEP = dict(ops=generate_workload(0, 10), seed=1, intra=2,
                     prune=True)

#: Bytecodes per append syscall with the observer hook over those without
#: it.  Counted on this code: 1863.7 / 1839.4 = 1.013 on ext4dax and
#: 1780.2 / 1751.3 = 1.016 on splitfs-strict.
HOOK_BUDGET = 1.05

#: The serve run the telemetry budget counts: an overloaded kv run, 600
#: requests in ten 500-us windows.
SERVE_CONFIG = ServeConfig(system="splitfs-strict", requests=600,
                           records=200, clients=200, offered_rate=120_000.0,
                           seed=11)
#: Serve-loop bytecodes that ``slo=True`` adds on :data:`SERVE_CONFIG`,
#: counted on this code: 934,844 with telemetry less 853,590 without, a
#: share of x1.095.  On the ``serve-slo`` golden's run a window close costs
#: about 8,170 of them.  Before serve's windows dropped the machine-wide
#: registry's sources, two per-arrival gauges and two of their three
#: histograms, the count was 183,605 (x1.214), and a close about 15,870.
TELEMETRY_EXTRA = 81_254

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


def _calls(fn):
    """``(Python calls made by fn(), its result)``; C builtins not counted."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    saved = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(saved)
    return calls, result


def count_calls(system, chunks):
    """Python calls per syscall."""
    fs, fd = _opened(system)
    calls, syscalls = _calls(lambda: _appends(fs, fd, chunks))
    return calls / syscalls


def _bytecodes(fn):
    """``(bytecodes executed by fn(), its result)``."""
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
        result = fn()
    finally:
        sys.settrace(saved)
    return ops, result


def count_bytecodes(system, chunks):
    """Bytecodes executed per syscall."""
    fs, fd = _opened(system)
    ops, syscalls = _bytecodes(lambda: _appends(fs, fd, chunks))
    return ops / syscalls


def per_remount(counter):
    """``counter``'s count per remount of :data:`REMOUNT_SWEEP`'s states
    (``counter`` is :func:`_calls` or :func:`_bytecodes`)."""
    real = crash_explorer.remount
    total = remounts = 0

    def counted(machine, kind):
        nonlocal total, remounts
        count, fs = counter(lambda: real(machine, kind))
        total += count
        remounts += 1
        return fs

    crash_explorer.remount = counted
    try:
        report = crash_explorer.explore("splitfs-strict", **REMOUNT_SWEEP)
    finally:
        crash_explorer.remount = real
    assert report.ok and remounts == report.states_explored
    return total / remounts


def serve_bytecodes(cfg):
    """Bytecodes of ``ServeEngine(cfg).run()`` after set-up (machine,
    file system and preload), with the run's result."""
    engine = ServeEngine(cfg)
    built = engine._build()
    engine._build = lambda: built
    return _bytecodes(engine.run)


@pytest.mark.parametrize("system", sorted(BUDGET))
def test_append_syscalls_stay_within_budget(system):
    chunks = _chunks()
    _appends(*_opened(system), chunks)  # lazy imports and caches first
    calls, bytecodes = count_calls(system, chunks), \
        count_bytecodes(system, chunks)
    want_calls, want_bytecodes = BUDGET[system]
    assert calls <= want_calls * SLACK, (calls, want_calls)
    assert bytecodes <= want_bytecodes * SLACK, (bytecodes, want_bytecodes)


def test_crash_state_remounts_stay_within_budget():
    crash_explorer.explore("splitfs-strict", **REMOUNT_SWEEP)  # caches first
    calls, bytecodes = per_remount(_calls), per_remount(_bytecodes)
    want_calls, want_bytecodes = REMOUNT_BUDGET
    assert calls <= want_calls * SLACK, (calls, want_calls)
    assert bytecodes <= want_bytecodes * SLACK, (bytecodes, want_bytecodes)


@pytest.mark.parametrize("system", sorted(BUDGET))
def test_disabled_observer_hook_stays_within_budget(system):
    chunks = _chunks()
    _appends(*_opened(system), chunks)
    hooked = count_bytecodes(system, chunks)
    with stripped_observer_hook():
        stripped = count_bytecodes(system, chunks)
    assert hooked <= stripped * HOOK_BUDGET, (hooked, stripped)


def test_telemetry_share_of_the_serve_loop_stays_within_budget():
    ServeEngine(SERVE_CONFIG).run()  # lazy imports first
    plain, plain_result = serve_bytecodes(SERVE_CONFIG)
    telem, telem_result = serve_bytecodes(
        dataclasses.replace(SERVE_CONFIG, slo=True))
    # The same simulated run: telemetry observes, it does not steer.
    assert telem_result.counters == plain_result.counters
    assert len(telem_result.telemetry.windows) == 10
    extra = telem - plain
    assert extra <= TELEMETRY_EXTRA * SLACK, (extra, plain, telem)
