"""Device-model sensitivity: the Table-2-style cost family across profiles.

``repro table1 --sensitivity`` reruns the Table-1 append workload for every
system under each device-model profile — the fixed-cost baseline, calibrated
Optane (token bucket + XPLine small-write curve), eADR (flushes free, fences
still order), DRAM-class bandwidth, and Optane with NUMA-remote placement —
and renders one table so the profile axis is readable the way the paper's
Table 2 makes the primitive-cost axis readable.

What the columns mean for the paper's argument:

* ``optane`` vs ``fixed`` shows where sustained bandwidth (not per-op
  latency) is the binding constraint: SplitFS's fast appends saturate the
  bucket, ext4's slow ones never do.
* ``eadr`` vs ``optane`` refunds the flush tax.  NOVA/PMFS/the journals
  flush per-op log entries, so they gain more than SplitFS-strict (whose
  movnt data path never flushed) — the relative ordering narrows exactly
  the way the paper's flush-cost analysis predicts, which the sensitivity
  tests pin.
* ``optane+numa`` is the unpinned-process worst case: every access remote.

Everything is seeded and runs on the simulated clock; a fixed-seed run is
byte-deterministic (``tools/goldens.py --check`` compares two runs).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..factory import SYSTEM_NAMES
from .harness import Measurement, append_4k_workload

#: The default profile family: (column label, device_profile, numa_remote).
#: ``None`` profile = the fixed-cost device of the committed goldens.
DEFAULT_PROFILES: Tuple[Tuple[str, Optional[str], bool], ...] = (
    ("fixed", None, False),
    ("optane", "optane", False),
    ("eadr", "eadr", False),
    ("dram", "dram", False),
    ("optane+numa", "optane", True),
)

DEFAULT_TOTAL_MB = 2


def run_sensitivity(
    systems: Optional[Sequence[str]] = None,
    total_mb: int = DEFAULT_TOTAL_MB,
    seed: int = 5,
    fsync_every: int = 100,
    profiles: Tuple[Tuple[str, Optional[str], bool], ...] = DEFAULT_PROFILES,
) -> Dict[str, Dict[str, Measurement]]:
    """Run the append workload for every (profile, system) pair.

    Returns ``{profile label: {system: Measurement}}`` in profile order —
    ready for :func:`~repro.bench.report.render_sensitivity_table`.
    """
    systems = tuple(systems) if systems else SYSTEM_NAMES
    out: Dict[str, Dict[str, Measurement]] = {}
    for label, profile, numa in profiles:
        out[label] = {
            system: append_4k_workload(
                system, total_bytes=total_mb << 20,
                fsync_every=fsync_every, seed=seed,
                device_profile=profile, numa_remote=numa)
            for system in systems
        }
    return out
