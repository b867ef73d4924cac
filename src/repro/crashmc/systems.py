"""Former home of the crash explorer's set-up and remount.

Both now come from the kind table in :mod:`repro.factory`
(``make_filesystem`` and ``remount``).  The module stays only because
perfbench's tracer self-test imports it and checks that its ``recover``
name gets wrapped; it goes with the next change to the benchmark.
"""

from ..core.recovery import recover  # noqa: F401
