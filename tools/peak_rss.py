"""Run a command and fail if its peak resident memory is above 1.5 GiB.

Usage, from the repository root::

    python tools/peak_rss.py -- python -m pytest -x -q

The command runs as a child process.  When it exits, the largest resident
set size reached by it or any descendant it waited for (``ru_maxrss`` of
``RUSAGE_CHILDREN``) is printed.  The exit status is the command's own, or
1 if the command passed but its peak was above :data:`LIMIT_MIB`.
"""

from __future__ import annotations

import resource
import subprocess
import sys

LIMIT_MIB = 1536


def main(argv) -> int:
    command = argv[1:] if argv[:1] == ["--"] else argv
    if not command:
        print(__doc__, file=sys.stderr)
        return 2
    status = subprocess.call(command)
    # ru_maxrss is in KiB on Linux.
    peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"peak_rss: {peak_mib:.0f} MiB (limit {LIMIT_MIB} MiB), "
          f"exit {status}", flush=True)
    if status == 0 and peak_mib > LIMIT_MIB:
        print("peak_rss: over the limit", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
