"""Host-time tracing of the simulator's layers, installed from outside.

:class:`Tracer` wraps the public functions of ``repro`` classes class-wide
(plus a few module-level functions, patched wherever they were imported)
so that every call records a span: layer, parent span, start, end.  Spans
stay in memory as flat arrays and are written out at the end of the run.
A span's *self* time is its duration minus the time its child spans
cover; summed per layer, plus the wall time outside every top-level span
(``other``), it reproduces the traced wall time exactly.  ``uninstall``
restores every patched attribute, so an untraced run in the same process
runs the original code.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import sys
import time
from array import array
from typing import Dict, List, Optional, Tuple

# One row per layer: (layer, metric name of its self time, targets).  A
# target is ``module:Class.method``, ``module:function`` or ``module:*``
# (every public method of every class defined in the module, and every
# module in the package when ``module`` is a package).  The first layer
# that claims a function owns it, so specific rows come before wide ones.
LAYERS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("pmem.device.init", "pmem.device.init_s",
     ("repro.pmem.device:PersistentMemory.__init__",)),
    ("pmem.device.store", "pmem.device.store_s",
     ("repro.pmem.device:PersistentMemory.store",)),
    ("pmem.device.persist", "pmem.device.persist_s",
     ("repro.pmem.device:PersistentMemory.clwb",
      "repro.pmem.device:PersistentMemory.sfence",
      "repro.pmem.device:PersistentMemory.persist")),
    ("pmem.device.load", "pmem.device.load_s",
     ("repro.pmem.device:PersistentMemory.load",)),
    ("pmem.timing.charge", "pmem.timing.charge_s",
     ("repro.pmem.timing:SimClock.charge",
      "repro.pmem.timing:SimClock.charge_cpu",
      "repro.pmem.timing:TimeAccount.charge")),
    ("kernel.machine.init", "kernel.machine.init_s",
     ("repro.kernel.machine:Machine.__init__",)),
    ("kernel.machine.fork", "kernel.machine.fork_s",
     ("repro.kernel.machine:Machine.fork",)),
    ("kernel.machine.crash", "kernel.machine.crash_s",
     ("repro.kernel.machine:Machine.crash",)),
    ("kernel.vfs.resolve", "kernel.vfs.resolve_s",
     ("repro.kernel.vfs:VFS.resolve",)),
    ("core.oplog.append", "core.oplog.append_s",
     ("repro.core.oplog:OperationLog.append",)),
    ("core.recovery.recover", "core.recovery.recover_s",
     ("repro.core.recovery:recover",)),
    ("obs.telemetry.advance", "obs.telemetry.advance_s",
     ("repro.obs.telemetry:Telemetry.advance",)),
    ("crashmc.oracle", "crashmc.oracle_s",
     ("repro.crashmc.oracles:check_state", "repro.crashmc.workload:*")),
    ("difftest.oracle", "difftest.oracle_s", ("repro.difftest.model:*",)),
    ("difftest.snapshot", "difftest.snapshot_s",
     ("repro.difftest.executor:snapshot",)),
    ("pmem.device", "pmem.device.self_s", ("repro.pmem.device:*",)),
    ("pmem.cache", "pmem.cache.self_s",
     ("repro.pmem.cache:*", "repro.pmem.cow:*")),
    ("ext4", "ext4.self_s",
     ("repro.ext4:*", "repro.ext4.fsck:fsck", "repro.ext4.fsck:assert_clean")),
    ("journal", "journal.self_s", ("repro.journal:*",)),
    ("core", "core.self_s", ("repro.core:*",)),
    ("nova", "nova.self_s", ("repro.nova:*",)),
    ("pmfs", "pmfs.self_s", ("repro.pmfs:*",)),
    ("strata", "strata.self_s", ("repro.strata:*",)),
    ("apps.leveldb", "apps.leveldb.self_s", ("repro.apps.leveldb:*",)),
    ("serve.engine", "serve.engine.self_s",
     ("repro.serve.engine:*", "repro.serve.workload:*")),
    ("obs.telemetry", "obs.telemetry.self_s", ("repro.obs.telemetry:*",)),
    ("kernel.vfs", "kernel.vfs.self_s", ("repro.kernel.vfs:*",)),
)

#: Functions whose call counts become per-layer metrics.
COUNTED = {
    "charge": "repro.pmem.timing:SimClock.charge",
    "commit": "repro.journal.jbd2:Journal.commit",
}


def _modules(name: str) -> List[object]:
    """``name`` and, for a package, every module inside it."""
    mod = importlib.import_module(name)
    mods = [mod]
    if hasattr(mod, "__path__"):
        for info in pkgutil.walk_packages(mod.__path__, name + "."):
            mods.append(importlib.import_module(info.name))
    return mods


def _wrappable(attr) -> bool:
    fn = attr.__func__ if isinstance(attr, (staticmethod, classmethod)) else attr
    # A generator function returns before its body runs: a span around it
    # would time only the generator's creation.
    return inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn)


def _class_targets(mod) -> List[Tuple[type, str]]:
    out = []
    for cls in vars(mod).values():
        if (not isinstance(cls, type) or cls.__module__ != mod.__name__
                or issubclass(cls, BaseException)):
            continue
        for name, attr in vars(cls).items():
            if not name.startswith("_") and _wrappable(attr):
                out.append((cls, name))
    return out


class Tracer:
    """Class-wide span recorder for the layers in :data:`LAYERS`."""

    def __init__(self) -> None:
        self.layers = [row[0] for row in LAYERS]
        self.metric_names = [row[1] for row in LAYERS]
        self._patches: List[Tuple[object, str, object]] = []
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        """Drop recorded spans and totals (start of a traced repeat)."""
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_s = [0.0] * len(self.layers)
        self.calls = [0] * len(self.layers)
        self.fn_calls = [0] * len(COUNTED)
        # Open spans: [span index, start, time covered by children].
        self._stack: List[list] = []
        self._top_s = 0.0

    def _wrap(self, fn, layer: int, count_slot: Optional[int]):
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.span_start)
            tracer.span_layer.append(layer)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            frame = [idx, 0.0, 0.0]
            stack.append(frame)
            tracer.calls[layer] += 1
            if count_slot is not None:
                tracer.fn_calls[count_slot] += 1
            tracer.span_end.append(0.0)
            start = frame[1] = perf()
            tracer.span_start.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                tracer.span_end[idx] = end
                stack.pop()
                dur = end - start
                tracer.self_s[layer] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                else:
                    tracer._top_s += dur

        traced.__wrapped__ = fn
        for key in ("__name__", "__qualname__", "__doc__", "__module__"):
            setattr(traced, key, getattr(fn, key, None))
        # Keep abstract-method and similar markers on the wrapper.
        traced.__dict__.update(getattr(fn, "__dict__", {}))
        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Patch every target; raises if already installed."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        counted = {target: slot for slot, target in enumerate(COUNTED.values())}
        claimed = set()
        try:
            for layer, (_, _, targets) in enumerate(LAYERS):
                for target in targets:
                    modname, _, what = target.partition(":")
                    if what == "*":
                        for mod in _modules(modname):
                            for cls, name in _class_targets(mod):
                                self._patch_method(cls, name, layer, claimed,
                                                   counted)
                    elif "." in what:
                        clsname, name = what.split(".")
                        cls = getattr(importlib.import_module(modname), clsname)
                        self._patch_method(cls, name, layer, claimed, counted,
                                           target=target)
                    else:
                        self._patch_function(modname, what, layer, claimed)
        except BaseException:
            self.uninstall()
            raise

    def _patch_method(self, cls, name, layer, claimed, counted,
                      target=None) -> None:
        if (cls, name) in claimed:
            return
        claimed.add((cls, name))
        attr = vars(cls)[name]
        if target is None:
            target = f"{cls.__module__}:{cls.__name__}.{name}"
        slot = counted.get(target)
        if isinstance(attr, (staticmethod, classmethod)):
            new = type(attr)(self._wrap(attr.__func__, layer, slot))
        else:
            new = self._wrap(attr, layer, slot)
        self._patches.append((cls, name, attr))
        setattr(cls, name, new)

    def _patch_function(self, modname, name, layer, claimed) -> None:
        fn = getattr(importlib.import_module(modname), name)
        if fn in claimed:
            return
        claimed.add(fn)
        wrapper = self._wrap(fn, layer, None)
        # ``from x import f`` copies the reference: patch every copy.
        for mname, mod in list(sys.modules.items()):
            if mname.split(".")[0] != "repro" or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    # -- results -------------------------------------------------------------

    def layer_self(self) -> Dict[str, float]:
        return dict(zip(self.metric_names, self.self_s))

    def other_s(self, wall_s: float) -> float:
        """Wall time outside every top-level span."""
        return wall_s - self._top_s

    def check(self, wall_s: float) -> List[str]:
        """Problems with the recorded spans; empty when consistent."""
        problems = []
        if self._stack:
            problems.append(f"{len(self._stack)} spans still open")
        if any(end < start for start, end in zip(self.span_start,
                                                 self.span_end)):
            problems.append("a span ends before it starts")
        total = sum(self.self_s) + self.other_s(wall_s)
        if abs(total - wall_s) > 1e-9 * max(1.0, len(self.span_start)):
            problems.append(f"self times sum to {total!r}, wall is {wall_s!r}")
        for name, value in self.layer_self().items():
            if value < -1e-6:
                problems.append(f"{name} self time is negative ({value})")
        if self.other_s(wall_s) < -1e-6:
            problems.append("time outside spans is negative")
        return problems

    def write(self, stem: str, wall_s: float) -> None:
        """Write every span to ``stem.bin`` and describe it in
        ``stem.json`` (a traced repeat records millions of spans, too many
        for JSON)."""
        with open(stem + ".bin", "wb") as fh:
            for arr in (self.span_layer, self.span_parent, self.span_start,
                        self.span_end):
                arr.tofile(fh)
        header = {
            "format": ("four arrays back to back, one entry per span: layer "
                       "index (int32), parent span index (int32, -1 at top "
                       "level), start and end (float64 perf_counter "
                       "seconds)"),
            "byteorder": sys.byteorder,
            "spans": len(self.span_start),
            "layers": self.layers,
            "wall_s": wall_s,
            "self_s": self.layer_self(),
            "other_s": self.other_s(wall_s),
        }
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh, indent=1)
